package workloads

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"accord/internal/ckpt"
)

// diffSpecs returns every stream identity the differential tests cover:
// all rate-mode presets plus a sample of mixes (mixes reuse preset specs,
// but per-core seeds and footprint splits differ).
func diffSpecs(t *testing.T) []Spec {
	t.Helper()
	var out []Spec
	for _, name := range Names() {
		wl := MustGet(name, 4)
		out = append(out, wl.Specs[0])
	}
	for _, name := range []string{"mix1", "mix4", "mix7"} {
		wl := MustGet(name, 4)
		out = append(out, wl.Specs...)
	}
	return out
}

// TestCursorMatchesGenerator is the core differential property: for every
// preset (and a sample of mixes), a replay cursor and a fresh generator
// produce identical event sequences, across multiple chunk boundaries and
// from a second cursor replaying the now-warm recording.
func TestCursorMatchesGenerator(t *testing.T) {
	const n = 2*chunkEvents + 777 // cross two chunk boundaries
	tc := NewTraceCache(0)
	for i, spec := range diffSpecs(t) {
		spec := spec
		t.Run(fmt.Sprintf("%02d-%s", i, spec.Name), func(t *testing.T) {
			seed := int64(i + 1)
			gen := NewStream(spec, 1<<16, 4, seed)
			rec := tc.Stream(spec, 1<<16, 4, seed)  // records
			play := tc.Stream(spec, 1<<16, 4, seed) // replays behind it
			var want, g1, g2 Event
			for j := 0; j < n; j++ {
				gen.Next(&want)
				rec.Next(&g1)
				if want != g1 {
					t.Fatalf("event %d: recording cursor %+v != generator %+v", j, g1, want)
				}
				play.Next(&g2)
				if want != g2 {
					t.Fatalf("event %d: replay cursor %+v != generator %+v", j, g2, want)
				}
			}
		})
	}
}

// TestCursorWindowMatchesNext pins the batch replay path: consuming a
// cursor through Window/Consume — in chunks of every awkward size, while
// a recording is still growing and on full replay — yields exactly the
// event sequence Next does, with flags encoding Write/Dep per the
// exported bits.
func TestCursorWindowMatchesNext(t *testing.T) {
	const n = chunkEvents + 999 // cross a chunk boundary
	tc := NewTraceCache(0)
	spec := MustGet("milc", 1).Specs[0]
	for round, label := range []string{"recording", "replaying"} {
		batch := tc.Stream(spec, 1<<16, 1, 7)
		ref := NewStream(spec, 1<<16, 1, 7)
		var want Event
		consumed, take := 0, 1
		for consumed < n {
			gaps, lines, flags := batch.Window()
			if len(gaps) == 0 || len(gaps) != len(lines) || len(gaps) != len(flags) {
				t.Fatalf("%s: malformed window: %d/%d/%d", label, len(gaps), len(lines), len(flags))
			}
			k := min(take, len(gaps))
			for i := 0; i < k; i++ {
				ref.Next(&want)
				if gaps[i] != want.Gap || lines[i] != want.Line {
					t.Fatalf("%s: event %d: window (gap %d, line %#x) != generator (gap %d, line %#x)",
						label, consumed+i, gaps[i], uint64(lines[i]), want.Gap, uint64(want.Line))
				}
				if got := flags[i]&FlagWrite != 0; got != want.Write {
					t.Fatalf("%s: event %d: write flag %v != %v", label, consumed+i, got, want.Write)
				}
				if got := flags[i]&FlagDep != 0; got != want.Dep {
					t.Fatalf("%s: event %d: dep flag %v != %v", label, consumed+i, got, want.Dep)
				}
			}
			batch.Consume(k)
			consumed += k
			take = take*3 + 1
			if take > 5000 {
				take = 1
			}
		}
		if batch.Pos() != int64(consumed) {
			t.Fatalf("%s: Pos() = %d after consuming %d", label, batch.Pos(), consumed)
		}
		// Window must not consume: interleaving Next afterwards continues
		// exactly where Consume left off.
		var got Event
		ref.Next(&want)
		batch.Next(&got)
		if want != got {
			t.Fatalf("%s: Next after Window/Consume diverged: %+v != %+v", label, got, want)
		}
		_ = round
	}
}

// TestCursorSnapshotMatchesGenerator locks the checkpoint-interchange
// contract: at any position — mid-chunk, at a chunk boundary, at the
// recording frontier, and beyond it — a cursor snapshot is byte-for-byte
// the snapshot a generator that consumed the same number of events would
// write.
func TestCursorSnapshotMatchesGenerator(t *testing.T) {
	spec := MustGet("mcf", 4).Specs[0]
	positions := []int64{0, 1, 100, chunkEvents - 1, chunkEvents, chunkEvents + 1, 2*chunkEvents + 37}
	for _, pos := range positions {
		tc := NewTraceCache(0)
		gen := NewStream(spec, 1<<16, 4, 9)
		cur := tc.Stream(spec, 1<<16, 4, 9)
		var ev Event
		for i := int64(0); i < pos; i++ {
			gen.Next(&ev)
		}
		for i := int64(0); i < pos; i++ {
			cur.Next(&ev)
		}
		eg, ec := ckpt.NewEncoder(0), ckpt.NewEncoder(0)
		gen.(Checkpointer).Snapshot(eg)
		cur.Snapshot(ec)
		if !bytes.Equal(eg.Finish(), ec.Finish()) {
			t.Fatalf("pos %d: cursor snapshot differs from generator snapshot", pos)
		}
	}
}

// TestCursorSnapshotBeyondFrontier snapshots a cursor whose restored
// position is past everything recorded so far: the trace must extend
// itself and still emit generator-identical bytes.
func TestCursorSnapshotBeyondFrontier(t *testing.T) {
	spec := MustGet("soplex", 4).Specs[0]
	const pos = chunkEvents + 123

	gen := NewStream(spec, 1<<16, 4, 5)
	var ev Event
	for i := 0; i < pos; i++ {
		gen.Next(&ev)
	}
	eg := ckpt.NewEncoder(0)
	gen.(Checkpointer).Snapshot(eg)
	want := eg.Finish()

	// A fresh cache: nothing recorded. Restore a cursor straight to pos.
	tc := NewTraceCache(0)
	cur := tc.Stream(spec, 1<<16, 4, 5)
	if err := cur.Restore(ckpt.NewDecoder(want)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if cur.Pos() != pos {
		t.Fatalf("restored position %d, want %d", cur.Pos(), pos)
	}
	ec := ckpt.NewEncoder(0)
	cur.Snapshot(ec)
	if !bytes.Equal(want, ec.Finish()) {
		t.Fatal("snapshot beyond the recorded frontier differs from generator snapshot")
	}
	// And replay from there must continue the generator's stream.
	var a, b Event
	for i := 0; i < 1000; i++ {
		gen.Next(&a)
		cur.Next(&b)
		if a != b {
			t.Fatalf("event %d after restore diverged: %+v != %+v", i, b, a)
		}
	}
}

// TestCursorRoundTripMidStream checks snapshot/restore mid-stream: a
// cursor restored from another cursor's snapshot continues the exact
// sequence, as does a generator restored from the same bytes.
func TestCursorRoundTripMidStream(t *testing.T) {
	spec := MustGet("omnetpp", 4).Specs[0]
	tc := NewTraceCache(0)
	cur := tc.Stream(spec, 1<<16, 4, 3)
	var ev Event
	for i := 0; i < chunkEvents+555; i++ {
		cur.Next(&ev)
	}
	e := ckpt.NewEncoder(0)
	cur.Snapshot(e)
	blob := e.Finish()

	want := drawEvents(cur, 2000)

	// Restore into a fresh cursor on the same cache.
	cur2 := tc.Stream(spec, 1<<16, 4, 3)
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur2.Restore(d); err != nil {
		t.Fatalf("cursor Restore: %v", err)
	}
	got := drawEvents(cur2, 2000)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d diverged after cursor->cursor restore", i)
		}
	}

	// Restore the same bytes into a bare generator.
	gen := NewStream(spec, 1<<16, 4, 77)
	d2, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.(Checkpointer).Restore(d2); err != nil {
		t.Fatalf("generator Restore of cursor snapshot: %v", err)
	}
	got = drawEvents(gen, 2000)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d diverged after cursor->generator restore", i)
		}
	}
}

// TestCursorRestoreRejectsBadInput mirrors the generator's adversarial
// decoding guarantees for cursors.
func TestCursorRestoreRejectsBadInput(t *testing.T) {
	spec := MustGet("gcc", 4).Specs[0]
	tc := NewTraceCache(0)
	cur := tc.Stream(spec, 1<<16, 4, 3)
	drawEvents(cur, 100)
	e := ckpt.NewEncoder(0)
	cur.Snapshot(e)
	payload := e.Finish()
	payload = payload[:len(payload)-4]

	fresh := func() *Cursor { return tc.Stream(spec, 1<<16, 4, 3) }
	bad := append([]byte{payload[0] + 1}, payload[1:]...)
	if err := fresh().Restore(ckpt.NewDecoder(bad)); err == nil {
		t.Error("version-bumped snapshot accepted")
	}
	for n := 0; n < len(payload); n += 1 + n/8 {
		if err := fresh().Restore(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// TestConcurrentLazyExtension races many cursors over one shared trace
// from different goroutines, each replaying a different distance, and
// checks every observed prefix against a reference generator. Run under
// -race this exercises the extension protocol's synchronization.
func TestConcurrentLazyExtension(t *testing.T) {
	spec := MustGet("libquantum", 4).Specs[0]
	const maxN = 3*chunkEvents + 311

	ref := drawEvents(NewStream(spec, 1<<16, 4, 11), maxN)

	tc := NewTraceCache(0)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		n := maxN - g*chunkEvents/2 // staggered distances
		cur := tc.Stream(spec, 1<<16, 4, 11)
		wg.Add(1)
		go func(g, n int, cur *Cursor) {
			defer wg.Done()
			var ev Event
			for i := 0; i < n; i++ {
				cur.Next(&ev)
				if ev != ref[i] {
					errs <- fmt.Errorf("goroutine %d event %d: %+v != %+v", g, i, ev, ref[i])
					return
				}
			}
		}(g, n, cur)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	traces, bytes, hits, misses, _ := tc.Stats()
	if traces != 1 || misses != 1 || hits != goroutines-1 {
		t.Errorf("stats: traces=%d bytes=%d hits=%d misses=%d, want one shared recording", traces, bytes, hits, misses)
	}
}

// TestTraceCacheEviction forces the byte budget and checks that cold
// recordings are dropped, that in-flight cursors on an evicted trace keep
// replaying correctly, and that resident bytes stay bounded.
func TestTraceCacheEviction(t *testing.T) {
	specs := diffSpecs(t)[:6]
	// One chunk costs ~220 KiB; budget for roughly two recordings.
	tc := NewTraceCache(500 << 10)

	first := tc.Stream(specs[0], 1<<16, 4, 1)
	drawEvents(first, 100)

	for _, spec := range specs[1:] {
		cur := tc.Stream(spec, 1<<16, 4, 1)
		drawEvents(cur, chunkEvents+1) // two chunks each
	}
	traces, used, _, misses, evicted := tc.Stats()
	if evicted == 0 {
		t.Fatal("no evictions despite exceeding the budget")
	}
	if used > 800<<10 {
		t.Fatalf("resident bytes %d far exceed budget", used)
	}
	if traces >= int(misses) {
		t.Fatalf("traces=%d, misses=%d: eviction did not shrink the map", traces, misses)
	}

	// The first trace was evicted (coldest); its cursor must still match
	// the reference stream via its orphaned recording.
	ref := NewStream(specs[0], 1<<16, 4, 1)
	var a, b Event
	for i := 0; i < 100; i++ {
		ref.Next(&a)
	}
	for i := 0; i < 2000; i++ {
		ref.Next(&a)
		first.Next(&b)
		if a != b {
			t.Fatalf("event %d on evicted trace diverged", i)
		}
	}

	// Re-requesting the evicted stream re-records from scratch.
	again := tc.Stream(specs[0], 1<<16, 4, 1)
	fresh := NewStream(specs[0], 1<<16, 4, 1)
	for i := 0; i < 500; i++ {
		fresh.Next(&a)
		again.Next(&b)
		if a != b {
			t.Fatalf("event %d on re-recorded trace diverged", i)
		}
	}
}

// TestReplayZeroAllocs enforces the replay fast path's allocation
// contract over a pre-recorded region, including refills within it.
func TestReplayZeroAllocs(t *testing.T) {
	spec := MustGet("soplex", 4).Specs[0]
	tc := NewTraceCache(0)
	warm := tc.Stream(spec, 1<<16, 4, 1)
	const recorded = 2 * chunkEvents
	drawEvents(warm, recorded)

	cur := tc.Stream(spec, 1<<16, 4, 1)
	var ev Event
	const perRun = recorded / 4
	runs := 0
	allocs := testing.AllocsPerRun(2, func() {
		if runs++; runs*perRun > recorded {
			t.Fatal("test bug: replay ran past the recorded region")
		}
		for i := 0; i < perRun; i++ {
			cur.Next(&ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("replay fast path allocated %.1f times per %d events, want 0", allocs, perRun)
	}
}

// TestSourceMatchesSimSeeds checks that TraceCache.Source derives the
// same per-core seeds sim.New does, via StreamSeed.
func TestSourceMatchesSimSeeds(t *testing.T) {
	wl := MustGet("mix2", 4)
	tc := NewTraceCache(0)
	src := tc.Source(wl.Specs, 1<<16, 7)
	for core := 0; core < 4; core++ {
		want := drawEvents(NewStream(wl.Specs[core], 1<<16, 4, StreamSeed(7, core)), 1500)
		got := drawEvents(src(core), 1500)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("core %d event %d diverged", core, i)
			}
		}
	}
}

// TestMeasuredSnapshotLength checks the measuring shortcut: a cursor
// behind or beyond the recorded frontier encodes to exactly the length a
// measurer counts without replaying, and measuring leaves the recording
// unextended.
func TestMeasuredSnapshotLength(t *testing.T) {
	spec := MustGet("mcf", 4).Specs[0]
	check := func(name string, c Checkpointer) {
		t.Helper()
		m := ckpt.NewMeasurer()
		c.Snapshot(m)
		e := ckpt.NewEncoder(0)
		c.Snapshot(e)
		if m.Len() != e.Len() {
			t.Errorf("%s: measured %d bytes, encoded %d", name, m.Len(), e.Len())
		}
	}

	tc := NewTraceCache(0)
	ahead := tc.Stream(spec, 1<<16, 4, 9)
	var ev Event
	for i := 0; i < 2*chunkEvents+37; i++ {
		ahead.Next(&ev)
	}
	behind := tc.Stream(spec, 1<<16, 4, 9)
	for i := 0; i < chunkEvents+100; i++ {
		behind.Next(&ev)
	}
	check("cursor behind the frontier", behind)

	fresh := NewTraceCache(0)
	beyond := fresh.Stream(spec, 1<<16, 4, 9)
	e := ckpt.NewEncoder(0)
	ahead.Snapshot(e)
	if err := beyond.Restore(ckpt.NewDecoder(e.Finish())); err != nil {
		t.Fatal(err)
	}
	beyond.Snapshot(ckpt.NewMeasurer())
	if total := beyond.t.total; total != 0 {
		t.Errorf("measuring extended the recording to %d events", total)
	}
	check("cursor beyond the frontier", beyond)

}

// TestCursorRestoreAllocatesNothing pins that a cursor restore, and a
// snapshot taken behind the recording frontier, build no generator per
// call: both work in the trace's one scratch generator. The restore
// allocates at most its decoder, and the snapshot no more than a
// generator's own snapshot into the same encoder.
func TestCursorRestoreAllocatesNothing(t *testing.T) {
	spec := MustGet("omnetpp", 4).Specs[0]
	tc := NewTraceCache(0)
	lead := tc.Stream(spec, 1<<16, 4, 3)
	drawEvents(lead, 2*chunkEvents)
	cur := tc.Stream(spec, 1<<16, 4, 3)
	drawEvents(cur, chunkEvents+555) // behind lead's frontier
	e := ckpt.NewEncoder(0)
	cur.Snapshot(e)
	blob := e.Finish()

	restore := func() {
		if err := cur.Restore(ckpt.NewDecoder(blob[:len(blob)-4])); err != nil {
			t.Fatalf("cursor Restore: %v", err)
		}
	}
	if avg := testing.AllocsPerRun(20, restore); avg > 1 {
		t.Errorf("cursor Restore allocated %.1f times per call, want only its decoder", avg)
	}

	gen := NewStream(spec, 1<<16, 4, 3).(Checkpointer)
	snapshot := func(c Checkpointer) func() {
		return func() { c.Snapshot(ckpt.NewEncoder(len(blob))) }
	}
	want := testing.AllocsPerRun(20, snapshot(gen))
	if avg := testing.AllocsPerRun(20, snapshot(cur)); avg > want {
		t.Errorf("cursor Snapshot behind the frontier allocated %.1f times per call, a generator's %.1f", avg, want)
	}
}

// TestCursorScratchConcurrent restores and snapshots cursors of one
// trace from several goroutines at once. They share the trace's scratch
// generator, so under -race this checks the lock around it, and every
// snapshot taken after a restore must give back the restored bytes.
func TestCursorScratchConcurrent(t *testing.T) {
	spec := MustGet("omnetpp", 4).Specs[0]
	tc := NewTraceCache(0)
	drawEvents(tc.Stream(spec, 1<<16, 4, 3), 3*chunkEvents)
	var blobs [][]byte
	for _, n := range []int{3, 100, chunkEvents + 7, 2*chunkEvents + 999} {
		c := tc.Stream(spec, 1<<16, 4, 3)
		drawEvents(c, n)
		e := ckpt.NewEncoder(0)
		c.Snapshot(e)
		blobs = append(blobs, e.Finish())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := tc.Stream(spec, 1<<16, 4, 3)
			for i := 0; i < 50; i++ {
				want := blobs[(g+i)%len(blobs)]
				if err := c.Restore(ckpt.NewDecoder(want[:len(want)-4])); err != nil {
					t.Errorf("goroutine %d: Restore: %v", g, err)
					return
				}
				e := ckpt.NewEncoder(len(want))
				c.Snapshot(e)
				if !bytes.Equal(e.Finish(), want) {
					t.Errorf("goroutine %d: Snapshot after Restore differs from the restored bytes", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
