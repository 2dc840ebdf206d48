package dram

import (
	"testing"
	"testing/quick"

	"accord/internal/cpu"
	"accord/internal/memtypes"
)

const cyclesPerNS = cpu.ClockGHz // cycles per nanosecond at the Table III clock

func TestConfigValidate(t *testing.T) {
	good := HBM()
	if err := good.Validate(); err != nil {
		t.Fatalf("HBM config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.BanksPerChannel = -1 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.BeatBytes = 0 },
		func(c *Config) { c.BeatNS = 0 },
		func(c *Config) { c.TRCD = -1 },
	}
	for i, mutate := range cases {
		c := HBM()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation", i)
		}
	}
}

func TestPeakBandwidth(t *testing.T) {
	// Table III: 128 GB/s aggregate for the DRAM cache, 32 GB/s for PCM.
	if bw := HBM().PeakBandwidthGBs(); bw != 128 {
		t.Errorf("HBM bandwidth = %v GB/s, want 128", bw)
	}
	if bw := PCM().PeakBandwidthGBs(); bw != 32 {
		t.Errorf("PCM bandwidth = %v GB/s, want 32", bw)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with bad config did not panic")
		}
	}()
	c := HBM()
	c.Channels = 0
	New(c, cyclesPerNS)
}

func TestNewPanicsOnBadClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with bad clock did not panic")
		}
	}()
	New(HBM(), 0)
}

func TestMapUnitStriping(t *testing.T) {
	c := HBM()
	unitsPerRow := c.RowBytes / memtypes.TagUnitSize
	// Units within a row share a location.
	l0 := c.MapUnit(0, unitsPerRow)
	l1 := c.MapUnit(uint64(unitsPerRow-1), unitsPerRow)
	if l0 != l1 {
		t.Errorf("units in same row map differently: %v vs %v", l0, l1)
	}
	// Consecutive rows change channel.
	l2 := c.MapUnit(uint64(unitsPerRow), unitsPerRow)
	if l2.Channel == l0.Channel {
		t.Errorf("consecutive rows share channel %d", l2.Channel)
	}
	// All channels get used.
	seen := map[int]bool{}
	for u := uint64(0); u < uint64(unitsPerRow*c.Channels*2); u += uint64(unitsPerRow) {
		seen[c.MapUnit(u, unitsPerRow).Channel] = true
	}
	if len(seen) != c.Channels {
		t.Errorf("only %d of %d channels used", len(seen), c.Channels)
	}
}

func TestMapUnitZeroUnitsPerRow(t *testing.T) {
	c := HBM()
	// Degenerate unitsPerRow is clamped rather than dividing by zero.
	_ = c.MapUnit(5, 0)
}

func TestRowMissThenHitLatency(t *testing.T) {
	d := New(HBM(), cyclesPerNS)
	loc := Loc{Channel: 0, Bank: 0, Row: 7}
	r1 := d.Access(0, loc, memtypes.Read, memtypes.TagUnitSize)
	if r1.RowHit {
		t.Error("first access to a bank reported a row hit")
	}
	// tRP+tRCD+tCAS+transfer = (13+13+13)*3 + 5ns*3 = 117+15.
	want := d.UnloadedReadLatency(memtypes.TagUnitSize)
	if r1.DataAt != want {
		t.Errorf("row-miss latency = %d, want %d", r1.DataAt, want)
	}
	r2 := d.Access(r1.DataAt, loc, memtypes.Read, memtypes.TagUnitSize)
	if !r2.RowHit {
		t.Error("second access to the same row missed the row buffer")
	}
	if got := r2.DataAt - r1.DataAt; got != d.RowHitReadLatency(memtypes.TagUnitSize) {
		t.Errorf("row-hit latency = %d, want %d", got, d.RowHitReadLatency(memtypes.TagUnitSize))
	}
}

func TestRowConflictCostsMore(t *testing.T) {
	d := New(HBM(), cyclesPerNS)
	a := Loc{Channel: 0, Bank: 0, Row: 1}
	b := Loc{Channel: 0, Bank: 0, Row: 2}
	r1 := d.Access(0, a, memtypes.Read, 64)
	r2 := d.Access(r1.DataAt, b, memtypes.Read, 64)
	if r2.RowHit {
		t.Error("different row reported a row hit")
	}
	if r2.DataAt-r1.DataAt <= d.RowHitReadLatency(64) {
		t.Errorf("row conflict (%d cycles) not slower than row hit (%d)",
			r2.DataAt-r1.DataAt, d.RowHitReadLatency(64))
	}
}

func TestBusSerializesSameChannel(t *testing.T) {
	d := New(HBM(), cyclesPerNS)
	// Two different banks on the same channel, issued at the same time:
	// the data bus must serialize the transfers.
	r1 := d.Access(0, Loc{Channel: 0, Bank: 0, Row: 0}, memtypes.Read, 64)
	r2 := d.Access(0, Loc{Channel: 0, Bank: 1, Row: 0}, memtypes.Read, 64)
	if r2.DataAt < r1.DataAt+d.transferCycles(64) {
		t.Errorf("transfers overlapped on one channel: %d then %d", r1.DataAt, r2.DataAt)
	}
}

func TestChannelsAreParallel(t *testing.T) {
	d := New(HBM(), cyclesPerNS)
	r1 := d.Access(0, Loc{Channel: 0, Bank: 0, Row: 0}, memtypes.Read, 64)
	r2 := d.Access(0, Loc{Channel: 1, Bank: 0, Row: 0}, memtypes.Read, 64)
	if r1.DataAt != r2.DataAt {
		t.Errorf("identical accesses on separate channels finished at %d and %d", r1.DataAt, r2.DataAt)
	}
}

func TestWriteRecoveryChargedToWrite(t *testing.T) {
	d := New(PCM(), cyclesPerNS)
	loc := Loc{Channel: 0, Bank: 0, Row: 0}
	w := d.Access(0, loc, memtypes.Write, 64)
	// The write's own completion includes write recovery (tWR = 150 ns).
	if minDone := int64(150 * cyclesPerNS); w.DataAt < minDone {
		t.Errorf("write completed at %d, want >= %d (tWR)", w.DataAt, minDone)
	}
}

func TestWritesDoNotBlockReads(t *testing.T) {
	// Buffered-write model: a pending write costs the read only bus
	// bandwidth, never bank blocking or a row-buffer closure.
	d := New(PCM(), cyclesPerNS)
	loc := Loc{Channel: 0, Bank: 0, Row: 0}
	d.Access(0, loc, memtypes.Read, 64) // open the row
	d.Access(1000, Loc{Channel: 0, Bank: 0, Row: 9}, memtypes.Write, 64)
	r := d.Access(1000, loc, memtypes.Read, 64)
	if !r.RowHit {
		t.Error("write closed the open row")
	}
	maxDone := int64(1000) + d.RowHitReadLatency(64) + d.transferCycles(64)
	if r.DataAt > maxDone {
		t.Errorf("read after buffered write done at %d, want <= %d", r.DataAt, maxDone)
	}
}

func TestPCMReadSlowerThanHBM(t *testing.T) {
	hbm := New(HBM(), cyclesPerNS)
	pcm := New(PCM(), cyclesPerNS)
	h := hbm.UnloadedReadLatency(64)
	p := pcm.UnloadedReadLatency(64)
	if ratio := float64(p) / float64(h); ratio < 2 || ratio > 4 {
		t.Errorf("PCM/HBM unloaded read ratio = %.2f, want within the paper's 2-4x", ratio)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := New(HBM(), cyclesPerNS)
	loc := Loc{Channel: 0, Bank: 0, Row: 0}
	d.Access(0, loc, memtypes.Read, 72)
	d.Access(0, loc, memtypes.Read, 72)
	d.Access(0, loc, memtypes.Write, 72)
	s := d.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 2/1", s.Reads, s.Writes)
	}
	if s.BytesRead != 144 || s.BytesWritten != 72 {
		t.Errorf("bytes = %d/%d, want 144/72", s.BytesRead, s.BytesWritten)
	}
	// Only reads touch row-buffer state under the buffered-write model.
	if s.Activates != 1 || s.RowMisses != 1 || s.RowHits != 1 {
		t.Errorf("activates/misses/hits = %d/%d/%d, want 1/1/1", s.Activates, s.RowMisses, s.RowHits)
	}
	if s.BusBusy <= 0 {
		t.Error("BusBusy not accumulated")
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero stats")
	}
}

func TestTimeMonotonicity(t *testing.T) {
	// Completion time never precedes issue time, and issuing later never
	// yields an earlier completion on a fresh device.
	f := func(at uint32, chRaw, bankRaw uint8, row uint16, write bool) bool {
		d := New(HBM(), cyclesPerNS)
		kind := memtypes.Read
		if write {
			kind = memtypes.Write
		}
		loc := Loc{Channel: int(chRaw), Bank: int(bankRaw), Row: uint64(row)}
		r := d.Access(int64(at), loc, kind, 64)
		return r.DataAt > int64(at)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthUnderLoad(t *testing.T) {
	// Saturating one channel with row hits should approach the per-channel
	// peak bandwidth: 64 B per 4 beats per 1 ns each = 16 GB/s.
	d := New(HBM(), cyclesPerNS)
	loc := Loc{Channel: 0, Bank: 0, Row: 0}
	n := 10000
	var last int64
	for i := 0; i < n; i++ {
		last = d.Access(0, loc, memtypes.Read, 64).DataAt
	}
	seconds := float64(last) / (cyclesPerNS * 1e9)
	gbs := float64(n*64) / seconds / 1e9
	if gbs < 14 || gbs > 16.5 {
		t.Errorf("sustained single-channel bandwidth = %.1f GB/s, want about 16", gbs)
	}
}
