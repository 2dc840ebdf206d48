// Package dram models DRAM-like memory devices (stacked HBM and PCM-style
// non-volatile memory) with a resource-reservation timing model: channels
// with shared data buses, banks with open-row state, and the
// tCAS/tRCD/tRP/tRAS/tWR timing constraints of the paper's Table III.
//
// Instead of ticking every cycle, each access computes its completion time
// as the max of the ready times of the resources it needs (bank, row, data
// bus) and then advances those resources. Queueing delay under bandwidth
// pressure and row-buffer locality emerge naturally, at a cost of
// O(1) work per access.
package dram

import (
	"fmt"
	"math"
	"math/bits"

	"accord/internal/memtypes"
	"accord/internal/metrics"
)

// Config describes one memory device.
type Config struct {
	Name            string
	Channels        int
	BanksPerChannel int
	RowBytes        int // row-buffer size per bank

	// Core timing parameters, nanoseconds.
	TCAS float64 // column access (CAS) latency
	TRCD float64 // row activate to column command
	TRP  float64 // precharge
	TRAS float64 // minimum row-open time before precharge
	TWR  float64 // write recovery (dominant for PCM writes)

	// Data bus: one beat moves BeatBytes in BeatNS nanoseconds.
	BeatBytes int
	BeatNS    float64

	// ECCSidecarBytes models KNL-style stacked DRAM whose ECC bits travel
	// on a separate sidecar bus alongside each data beat (the paper's
	// footnote 1: a 16-byte data bus plus a 2-byte ECC bus, with tags kept
	// in unused ECC bits). Each beat then carries BeatBytes of data plus
	// this many sidecar bytes at no extra data-bus occupancy, so a 72-byte
	// tag+data unit costs only 64 bytes of bus time.
	ECCSidecarBytes int

	// WriteDrainWays is the number of banks the write queue can drain
	// into concurrently. A buffered write occupies the channel for
	// max(transfer time, tWR/WriteDrainWays), so devices with slow cell
	// writes (PCM) sustain proportionally less write bandwidth. Zero
	// means transfer-time only.
	WriteDrainWays int

	// WriteQueueDepth is the per-channel write-queue capacity in entries
	// (64-byte units). Reads stall on write traffic only once this queue
	// overflows. Zero selects the default of 32.
	WriteQueueDepth int

	// Per-operation energy, nanojoules; consumed by internal/energy.
	EActivateNJ  float64 // one row activation
	EReadUnitNJ  float64 // one column read (per transferred unit)
	EWriteUnitNJ float64 // one column write (per transferred unit)
	BackgroundW  float64 // static+refresh power for the whole device
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram %s: Channels = %d, must be positive", c.Name, c.Channels)
	case c.BanksPerChannel <= 0:
		return fmt.Errorf("dram %s: BanksPerChannel = %d, must be positive", c.Name, c.BanksPerChannel)
	case c.RowBytes <= 0:
		return fmt.Errorf("dram %s: RowBytes = %d, must be positive", c.Name, c.RowBytes)
	case c.BeatBytes <= 0 || c.BeatNS <= 0:
		return fmt.Errorf("dram %s: data bus (%d B / %.2f ns) must be positive", c.Name, c.BeatBytes, c.BeatNS)
	case c.TCAS < 0 || c.TRCD < 0 || c.TRP < 0 || c.TRAS < 0 || c.TWR < 0:
		return fmt.Errorf("dram %s: negative timing parameter", c.Name)
	}
	return nil
}

// PeakBandwidthGBs returns the aggregate peak data-bus bandwidth in GB/s.
func (c Config) PeakBandwidthGBs() float64 {
	return float64(c.Channels) * float64(c.BeatBytes) / c.BeatNS
}

// HBM returns the stacked-DRAM cache device of Table III: 8 channels of
// 128-bit bus at 500 MHz DDR (1 GT/s), 128 GB/s aggregate.
func HBM() Config {
	return Config{
		Name:            "hbm",
		Channels:        8,
		BanksPerChannel: 32, // HBM2-class bank-group parallelism
		RowBytes:        2048,
		TCAS:            13, TRCD: 13, TRP: 13, TRAS: 30, TWR: 15,
		BeatBytes: 16, BeatNS: 1.0, // 16 GB/s per channel
		ECCSidecarBytes: 2, // tags travel in the ECC space (footnote 1)
		EActivateNJ:     0.9, EReadUnitNJ: 1.2, EWriteUnitNJ: 1.4,
		BackgroundW: 2.0,
	}
}

// PCM returns the non-volatile main memory of Table III: 2 channels of
// 64-bit bus at 1 GHz DDR (2 GT/s), 32 GB/s aggregate. Read latency is
// roughly 3x and write recovery roughly 10x the DRAM-cache equivalents,
// inside the paper's 2-4x read / 4x write envelope for end-to-end latency.
func PCM() Config {
	return Config{
		Name:            "pcm",
		Channels:        2,
		BanksPerChannel: 64, // PCM-class memories expose wide partition-level parallelism
		RowBytes:        64, // effectively closed-row: PCM has no open-page benefit
		TCAS:            13, TRCD: 100, TRP: 13, TRAS: 120, TWR: 150,
		BeatBytes: 8, BeatNS: 0.5, // 16 GB/s per channel
		WriteDrainWays: 12, // sustained write bandwidth ~1/3 of read
		EActivateNJ:    2.5, EReadUnitNJ: 3.0, EWriteUnitNJ: 12.0,
		BackgroundW: 0.5,
	}
}

// Loc addresses one row of one bank.
type Loc struct {
	Channel int
	Bank    int
	Row     uint64
}

// MapUnit maps a linear unit index (a cache set, or a memory line frame)
// to a device location. Units that share a row are adjacent
// (unit/unitsPerRow selects the row), and consecutive rows stripe across
// channels and then banks so that independent accesses spread out.
func (c Config) MapUnit(unit uint64, unitsPerRow int) Loc {
	m := c.NewMapper(unitsPerRow)
	return m.Map(unit)
}

// Mapper is the precomputed form of MapUnit for one (device, unitsPerRow)
// pairing. Callers on the per-access hot path build a Mapper once and call
// Map per access: the Mapper is a few words (no Config copy per call), and
// every division strength-reduces to a shift (powers of two) or a
// reciprocal multiplication (e.g. the 28 tag+data units per 2 KB row).
type Mapper struct {
	rowDiv  divisor
	chanDiv divisor
	bankDiv divisor
}

// divisor divides/reduces by a fixed uint64, with a shift/mask fast path
// for powers of two and a multiply-by-reciprocal fast path for other
// divisors below 2^32.
type divisor struct {
	n     uint64
	magic uint64 // ceil(2^64/n) when usable, else 0
	shift uint
	pow2  bool
}

func newDivisor(n uint64) divisor {
	d := divisor{n: n}
	if n&(n-1) == 0 {
		d.pow2 = true
		for m := n; m > 1; m >>= 1 {
			d.shift++
		}
	} else if n < 1<<32 {
		// With m = floor(2^64/n)+1 = (2^64+e)/n for some 1 <= e <= n,
		// hi(m*x) = floor(x/n + x*e/(n*2^64)), which equals floor(x/n)
		// whenever x*e < 2^64 — guaranteed for x, n < 2^32.
		d.magic = ^uint64(0)/n + 1
	}
	return d
}

func (d divisor) divMod(x uint64) (quo, rem uint64) {
	if d.pow2 {
		return x >> d.shift, x & (d.n - 1)
	}
	if d.magic != 0 && x < 1<<32 {
		quo, _ = bits.Mul64(d.magic, x)
		return quo, x - quo*d.n
	}
	return x / d.n, x % d.n
}

// NewMapper precomputes the striping arithmetic of MapUnit.
func (c Config) NewMapper(unitsPerRow int) Mapper {
	if unitsPerRow < 1 {
		unitsPerRow = 1
	}
	return Mapper{
		rowDiv:  newDivisor(uint64(unitsPerRow)),
		chanDiv: newDivisor(uint64(c.Channels)),
		bankDiv: newDivisor(uint64(c.BanksPerChannel)),
	}
}

// Map maps a linear unit index to its device location (see MapUnit).
// Pointer receiver on purpose: the Mapper is several cache-line-sized
// words of precomputed divisors, and Map is called per probe.
func (m *Mapper) Map(unit uint64) Loc {
	rowID, _ := m.rowDiv.divMod(unit)
	rest, ch := m.chanDiv.divMod(rowID)
	row, bank := m.bankDiv.divMod(rest)
	return Loc{Channel: int(ch), Bank: int(bank), Row: row}
}

// Result reports the timing of one access.
type Result struct {
	// DataAt is the cycle at which the transfer completes: read data has
	// fully arrived, or write data has been accepted by the device.
	DataAt int64
	// RowHit records whether the access hit the open row buffer.
	RowHit bool
}

// Stats are the cumulative operation counts of a device, the inputs to the
// energy model and the bandwidth accounting.
type Stats struct {
	Activates    uint64
	Reads        uint64 // column read operations
	Writes       uint64 // column write operations
	BytesRead    uint64
	BytesWritten uint64
	RowHits      uint64
	RowMisses    uint64
	// BusBusy accumulates cycles during which some channel data bus was
	// transferring (summed over channels; divide by Channels for average
	// utilization).
	BusBusy int64
	// ReadLatency accumulates (completion - issue) over reads, for mean
	// device-level read latency reporting.
	ReadLatency int64
	// BankWait accumulates cycles reads spent waiting for a busy bank;
	// BusWait accumulates cycles spent waiting for the data bus.
	BankWait int64
	BusWait  int64
}

type bank struct {
	rowOpen bool
	openRow uint64
	readyAt int64 // earliest cycle for the next column command
	actAt   int64 // cycle of the last activation (for tRAS)
}

// maxBusyIntervals bounds the per-channel busy-interval history used for
// data-bus backfill. Dropping the oldest interval forgets that its bus
// time was taken, so a request that starts before the oldest retained
// interval can be booked over it: the bus is overbooked, not
// conservatively delayed. Such requests are rare: with ACCORD 2-way,
// 16 cores and Scale 256 over 1M + 1M instructions, 0 of 4.82 M
// reservations on mcf landed on forgotten time, and 1 of 1.63 M (12
// cycles) on libquantum.
const maxBusyIntervals = 24

type busyIvl struct{ start, end int64 }

// busyRingCap sizes each channel's calendar ring: a power of two with
// headroom above maxBusyIntervals+1 (the deepest transient during a
// merge-insert), so appending and dropping history are index arithmetic
// on a fixed inline array — no compaction copies, no slice growth, ever.
const (
	busyRingCap  = 32
	busyRingMask = busyRingCap - 1
)

type channel struct {
	// The data bus's scheduled transfer windows — sorted, non-overlapping
	// — live in a calendar ring: `ring` holds busyCount intervals starting
	// at logical index 0 == physical busyHead&mask. Keeping intervals
	// instead of a single next-free scalar lets a transfer scheduled in
	// the near future (a dependent second probe, a fill) coexist with
	// earlier idle time: requests backfill gaps instead of queueing behind
	// reservations that have not happened yet. Appending a new interval
	// and dropping the oldest are both O(1) ring-index updates; only the
	// rare mid-ring merge-insert of a backfill shifts entries. busyLast
	// caches the end of the newest interval (0 when empty) so the
	// append fast path and drainWrites never touch the ring at all.
	busyHead     uint32
	busyCount    uint32
	busyLast     int64
	writeBacklog int64 // queued write-drain cycles
	ring         [busyRingCap]busyIvl
	banks        []bank
}

// ivl returns the interval at logical index i (0 = oldest retained).
func (ch *channel) ivl(i int) *busyIvl {
	return &ch.ring[(ch.busyHead+uint32(i))&busyRingMask]
}

// lastEnd returns the end of the latest scheduled transfer.
func (ch *channel) lastEnd() int64 { return ch.busyLast }

// reserve finds the earliest start >= from where the bus is free for dur
// cycles, books it, and returns it.
//
// The fast path — the request starts at or after every scheduled
// transfer, which is the common case when the bus is busy and time moves
// forward — extends the newest interval or appends a new one in O(1)
// against the cached busyLast, keeping reserve small enough to inline
// into Access and drainWrites. Everything else (backfill into an earlier
// gap) goes to reserveSlow.
func (ch *channel) reserve(from, dur int64) int64 {
	if from >= ch.busyLast {
		n := ch.busyCount
		if n != 0 && from == ch.busyLast {
			ch.ring[(ch.busyHead+n-1)&busyRingMask].end = from + dur
		} else {
			ch.ring[(ch.busyHead+n)&busyRingMask] = busyIvl{start: from, end: from + dur}
			if n >= maxBusyIntervals {
				// Drop the oldest interval: a head increment, no copy.
				ch.busyHead++
			} else {
				ch.busyCount = n + 1
			}
		}
		ch.busyLast = from + dur
		return from
	}
	return ch.reserveSlow(from, dur)
}

// reserveSlow backfills a reservation that starts before the newest
// scheduled transfer, merging it into the retained interval history.
func (ch *channel) reserveSlow(from, dur int64) int64 {
	// Intervals whose end is <= from can never constrain this request;
	// the forward walk below would skip them one by one. Seek the first
	// relevant interval from the END instead: requests land near the
	// present, so this backward seek is a step or two while a forward
	// skip would traverse the whole retained history.
	n := int(ch.busyCount)
	p := n
	for p > 0 && ch.ivl(p-1).end > from {
		p--
	}
	t := from
	idx := p
	for i := p; i < n; i++ {
		iv := *ch.ivl(i)
		if iv.end <= t {
			idx = i + 1
			continue
		}
		if iv.start >= t+dur {
			idx = i
			break
		}
		t = iv.end
		idx = i + 1
	}
	// Insert [t, t+dur) at idx, merging with touching neighbours. The
	// shifts move at most maxBusyIntervals entries and only run on this
	// already-rare path.
	nb := busyIvl{start: t, end: t + dur}
	if idx > 0 && ch.ivl(idx-1).end == nb.start {
		ch.ivl(idx - 1).end = nb.end
		if idx < n && ch.ivl(idx).start == nb.end {
			ch.ivl(idx - 1).end = ch.ivl(idx).end
			for j := idx; j < n-1; j++ {
				*ch.ivl(j) = *ch.ivl(j + 1)
			}
			ch.busyCount--
		}
	} else if idx < n && ch.ivl(idx).start == nb.end {
		ch.ivl(idx).start = nb.start
	} else {
		for j := n; j > idx; j-- {
			*ch.ivl(j) = *ch.ivl(j - 1)
		}
		*ch.ivl(idx) = nb
		ch.busyCount++
		if ch.busyCount > maxBusyIntervals {
			// Drop the oldest interval (which may be the one just
			// inserted, when the whole retained history is later than it
			// — the reservation at t stands either way, exactly as the
			// previous sliding-window implementation behaved).
			ch.busyHead++
			ch.busyCount--
		}
	}
	ch.busyLast = ch.ivl(int(ch.busyCount) - 1).end
	return t
}

// Device is a single memory device instance. It is not safe for concurrent
// use; the simulator is single-goroutine by design.
type Device struct {
	cfg Config

	// Timing parameters converted to CPU cycles.
	tCAS, tRCD, tRP, tRAS, tWR int64
	cyclesPerNS                float64

	// xferByBeats[b] is the bus occupancy of a b-beat transfer,
	// precomputed so the per-access path never touches float math; the
	// drain floor of writeOcc is likewise fixed at construction, and
	// xferPer hoists the per-beat payload width off the access path.
	xferByBeats [maxXferBeats + 1]int64
	// xferByBytes caches transferCycles for the common small payloads
	// (lines and tag+data units), keyed by byte count so the hot path
	// avoids the division by the per-beat width. A heap slice, not an
	// inline array: Devices are created per simulated session, and an
	// inline table would bloat every copy of the struct.
	xferByBytes []int64
	drainFloor  int64
	xferPer     int

	channels      []channel
	writeQueueCap int64 // backlog cycles at which reads start stalling
	stats         Stats
}

// maxXferBeats bounds the precomputed transfer table; the payloads this
// simulator moves (64-byte lines, 72-byte tag+data units) never exceed it.
const maxXferBeats = 32

// New builds a device from cfg, with time measured in CPU cycles
// (cyclesPerNS = CPU GHz). It panics on an invalid configuration, which is
// always a programming error in this codebase.
func New(cfg Config, cyclesPerNS float64) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cyclesPerNS <= 0 {
		panic(fmt.Sprintf("dram %s: cyclesPerNS = %v, must be positive", cfg.Name, cyclesPerNS))
	}
	d := &Device{
		cfg:         cfg,
		cyclesPerNS: cyclesPerNS,
		tCAS:        toCycles(cfg.TCAS, cyclesPerNS),
		tRCD:        toCycles(cfg.TRCD, cyclesPerNS),
		tRP:         toCycles(cfg.TRP, cyclesPerNS),
		tRAS:        toCycles(cfg.TRAS, cyclesPerNS),
		tWR:         toCycles(cfg.TWR, cyclesPerNS),
		channels:    make([]channel, cfg.Channels),
	}
	d.xferPer = cfg.BeatBytes + cfg.ECCSidecarBytes
	for b := 0; b <= maxXferBeats; b++ {
		d.xferByBeats[b] = toCycles(float64(b)*cfg.BeatNS, cyclesPerNS)
	}
	d.xferByBytes = make([]int64, 2*memtypes.LineSize+1)
	for n := range d.xferByBytes {
		d.xferByBytes[n] = d.transferCyclesSlow(n)
	}
	if cfg.WriteDrainWays > 0 {
		d.drainFloor = d.tWR / int64(cfg.WriteDrainWays)
	}
	depth := cfg.WriteQueueDepth
	if depth <= 0 {
		depth = 32
	}
	d.writeQueueCap = int64(depth) * d.writeOcc(memtypes.LineSize)
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.BanksPerChannel)
	}
	return d
}

func toCycles(ns, cyclesPerNS float64) int64 {
	return int64(math.Ceil(ns * cyclesPerNS))
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns the cumulative statistics.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the statistics without disturbing bank/bus state; used
// after warmup.
func (d *Device) ResetStats() { d.stats = Stats{} }

// SetStats replaces the cumulative statistics wholesale. Interval
// sampling uses it to impose the committed per-interval aggregates on
// the final device after the measured windows ran elsewhere (in-place
// or on fork systems).
func (d *Device) SetStats(s Stats) { d.stats = s }

// Add accumulates o into s field by field; Stats is a plain sum type,
// so interval deltas compose by addition.
func (s *Stats) Add(o Stats) {
	s.Activates += o.Activates
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.BusBusy += o.BusBusy
	s.ReadLatency += o.ReadLatency
	s.BankWait += o.BankWait
	s.BusWait += o.BusWait
}

// ResetTiming returns every bank and channel to its power-on timing
// state — rows closed, banks immediately ready, data buses idle, write
// backlogs drained — without touching the statistics. A device after
// ResetTiming is behaviorally indistinguishable from a freshly
// constructed one (stale ring entries past busyCount are never read).
// Interval sampling calls it at each detailed-window boundary so
// in-place and fork-restored measured windows start from the same
// canonical device state.
func (d *Device) ResetTiming() {
	for i := range d.channels {
		ch := &d.channels[i]
		ch.busyHead = 0
		ch.busyCount = 0
		ch.busyLast = 0
		ch.writeBacklog = 0
		for j := range ch.banks {
			ch.banks[j] = bank{}
		}
	}
}

// RegisterMetrics publishes the device's statistics into r under prefix
// (e.g. "hbm", "pcm") as views over the live counters; the access path
// itself stays allocation- and indirection-free.
func (d *Device) RegisterMetrics(r *metrics.Registry, prefix string) {
	s := &d.stats
	c := func(name, help string, fn func() uint64) { r.CounterFunc(prefix+"."+name, help, fn) }
	c("activates", "row activations", func() uint64 { return s.Activates })
	c("reads", "column read operations", func() uint64 { return s.Reads })
	c("writes", "column write operations", func() uint64 { return s.Writes })
	c("bytes_read", "payload bytes read", func() uint64 { return s.BytesRead })
	c("bytes_written", "payload bytes written", func() uint64 { return s.BytesWritten })
	c("row_hits", "reads that hit the open row buffer", func() uint64 { return s.RowHits })
	c("row_misses", "reads that required an activation", func() uint64 { return s.RowMisses })
	c("bus_busy_cycles", "data-bus busy cycles, summed over channels", func() uint64 { return uint64(s.BusBusy) })
	c("bank_wait_cycles", "cycles reads waited for a busy bank", func() uint64 { return uint64(s.BankWait) })
	c("bus_wait_cycles", "cycles reads waited for the data bus", func() uint64 { return uint64(s.BusWait) })

	r.GaugeFunc(prefix+".row_hit_rate_pct", "row-buffer hit rate of reads, percent (absent before any read)",
		func() float64 {
			total := s.RowHits + s.RowMisses
			if total == 0 {
				return math.NaN()
			}
			return 100 * float64(s.RowHits) / float64(total)
		})
	r.GaugeFunc(prefix+".mean_read_latency_cycles", "mean device-level read latency (absent before any read)",
		func() float64 {
			if s.Reads == 0 {
				return math.NaN()
			}
			return float64(s.ReadLatency) / float64(s.Reads)
		})
}

// transferCycles returns the bus occupancy for a payload of n bytes. With
// an ECC sidecar, each beat moves BeatBytes+ECCSidecarBytes, so
// tags-with-data units ride free alongside their data.
func (d *Device) transferCycles(bytes int) int64 {
	if uint(bytes) < uint(len(d.xferByBytes)) {
		return d.xferByBytes[bytes]
	}
	return d.transferCyclesSlow(bytes)
}

// transferCyclesSlow computes the occupancy from first principles; it
// fills xferByBytes at construction and serves oversized payloads.
func (d *Device) transferCyclesSlow(bytes int) int64 {
	beats := (bytes + d.xferPer - 1) / d.xferPer
	if beats <= maxXferBeats {
		return d.xferByBeats[beats]
	}
	return toCycles(float64(beats)*d.cfg.BeatNS, d.cyclesPerNS)
}

// writeOcc returns the channel-drain occupancy of one buffered write: the
// bus transfer, or the cell-write time divided across the banks the write
// queue drains into, whichever is slower.
func (d *Device) writeOcc(bytes int) int64 {
	occ := d.transferCycles(bytes)
	if d.drainFloor > occ {
		occ = d.drainFloor
	}
	return occ
}

// Access performs one read or write of the given payload at loc, earliest
// at cycle `at`, and returns its completion time. The caller is responsible
// for issuing accesses in (approximately) non-decreasing time order.
//
// Writes model a buffered write queue with read priority, as in real
// memory controllers: a write lands in the channel's write queue (cost:
// energy plus queue occupancy) and drains during bus idle gaps; reads see
// write traffic only when the queue overflows, at which point the
// overflow drains ahead of them. Writes do not perturb bank or row state
// visible to reads. The write-recovery cost (tWR, dominant for PCM) is
// part of each write's drain occupancy via WriteDrainWays.
func (d *Device) Access(at int64, loc Loc, kind memtypes.Kind, bytes int) Result {
	// Mapper-produced locations are already in range, so the reducing mod
	// (kept for arbitrary callers) almost never pays for a division.
	chIdx, bkIdx := loc.Channel, loc.Bank
	if chIdx >= d.cfg.Channels {
		chIdx %= d.cfg.Channels
	}
	if bkIdx >= d.cfg.BanksPerChannel {
		bkIdx %= d.cfg.BanksPerChannel
	}
	ch := &d.channels[chIdx]
	bk := &ch.banks[bkIdx]

	if kind == memtypes.Write {
		occ := d.writeOcc(bytes)
		d.drainWrites(ch, at)
		ch.writeBacklog += occ
		d.stats.Writes++
		d.stats.BytesWritten += uint64(bytes)
		// Nominal completion for the writer: queued behind the current
		// backlog, then cell-write recovery.
		return Result{DataAt: max(at, ch.lastEnd()) + ch.writeBacklog + d.tWR, RowHit: true}
	}

	start := max(at, bk.readyAt)
	d.stats.BankWait += start - at
	rowHit := bk.rowOpen && bk.openRow == loc.Row
	var rowReadyAt int64
	if rowHit {
		rowReadyAt = start
		d.stats.RowHits++
	} else {
		// If a different row is open, precharge it first (no earlier than
		// tRAS after its activation); a closed bank activates immediately.
		actAt := start
		if bk.rowOpen {
			preAt := max(start, bk.actAt+d.tRAS)
			actAt = preAt + d.tRP
		}
		rowReadyAt = actAt + d.tRCD
		bk.rowOpen = true
		bk.openRow = loc.Row
		bk.actAt = actAt
		d.stats.Activates++
		d.stats.RowMisses++
	}

	casDoneAt := rowReadyAt + d.tCAS
	xfer := d.transferCycles(bytes)

	// The bus idle gap until this read's data phase drains buffered
	// writes; reads stall on writes only past the queue capacity.
	d.drainWrites(ch, casDoneAt)
	need := xfer
	if over := ch.writeBacklog - d.writeQueueCap; over > 0 {
		// Queue overflow: the excess must drain ahead of this read.
		need += over
		ch.writeBacklog -= over
		d.stats.BusBusy += over
	}

	slot := ch.reserve(casDoneAt, need)
	busStart := slot + (need - xfer) // data phase after any forced drain
	d.stats.BusWait += busStart - casDoneAt
	dataAt := busStart + xfer
	d.stats.BusBusy += xfer

	// Subsequent column commands to the open row can pipeline; the data
	// bus is the serializing resource, so a row hit leaves the bank ready
	// time alone (never pushing it into the future past other requesters).
	if !rowHit {
		bk.readyAt = rowReadyAt
	}
	d.stats.Reads++
	d.stats.BytesRead += uint64(bytes)
	d.stats.ReadLatency += dataAt - at
	return Result{DataAt: dataAt, RowHit: rowHit}
}

// drainWrites retires backlogged writes into the bus idle time before
// `until`, consuming real bus occupancy for what it drains.
func (d *Device) drainWrites(ch *channel, until int64) {
	if ch.writeBacklog == 0 {
		return
	}
	idle := until - ch.lastEnd()
	if idle <= 0 {
		return
	}
	drained := min(ch.writeBacklog, idle)
	ch.reserve(ch.lastEnd(), drained)
	ch.writeBacklog -= drained
	d.stats.BusBusy += drained
}

// UnloadedReadLatency returns the latency in cycles of an isolated read of
// the given payload on a closed (precharged) bank — the "row miss, idle
// system" case, useful for tests and for reporting.
func (d *Device) UnloadedReadLatency(bytes int) int64 {
	return d.tRCD + d.tCAS + d.transferCycles(bytes)
}

// RowHitReadLatency returns the latency of an isolated read that hits the
// open row.
func (d *Device) RowHitReadLatency(bytes int) int64 {
	return d.tCAS + d.transferCycles(bytes)
}
