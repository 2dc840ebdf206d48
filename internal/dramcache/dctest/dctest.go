// Package dctest is the reusable conformance harness for L4 backend
// implementations. Every organization registered with dramcache.Register
// must pass RunAll: functional-vs-detailed state equivalence, checkpoint
// round-trip byte-identity, in-memory fork copies equal to the codec's,
// stats monotonicity and universal accounting invariants, and
// adversarial codec robustness (truncation, corruption, version skew,
// structural mismatch — reject, never panic).
//
// The harness deliberately checks only contract obligations every
// organization shares. Organization-specific identities (e.g. the nway
// "installs == misses + absent writebacks" conservation law, which
// Banshee's selective-install bypass intentionally breaks) belong next
// to the backend, not here. Trace-cache interchangeability — the last
// leg of the contract — is exercised end-to-end by the golden suite in
// internal/exp, which runs every backend with the trace cache off and on
// and requires bit-identical metrics.
//
// External backends get the same coverage for free:
//
//	for _, h := range dctest.Backends(1) {
//		t.Run(h.Backend, func(t *testing.T) { dctest.RunAll(t, h) })
//	}
package dctest

import (
	"fmt"
	"testing"

	"accord/internal/ckpt"
	"accord/internal/core"
	"accord/internal/cpu"
	"accord/internal/dram"
	"accord/internal/dramcache"
	"accord/internal/memtypes"
	"accord/internal/xrand"
)

// Capacities used by the harness. Both satisfy every bundled backend's
// geometry (power-of-two sets at line, 4-line-way, and page granularity)
// while staying small enough for exhaustive sweeps; they differ so
// NewMismatched produces structurally incompatible snapshots.
const (
	harnessCapacity    = 256 << 10 // 4096 lines, 64 pages
	mismatchedCapacity = 128 << 10 // 2048 lines, 32 pages
)

// harnessWays is the associativity handed to backends that use Ways.
const harnessWays = 2

// Harness builds identically configured instances of one backend on
// demand; every conformance check needs at least two.
type Harness struct {
	// Backend is the registry name under test.
	Backend string
	// New returns a freshly built, identically configured instance
	// (instances share nothing, including policies and devices).
	New func() dramcache.Interface
	// NewMismatched returns an instance with a different geometry, for
	// structural-mismatch rejection checks.
	NewMismatched func() dramcache.Interface
}

// build constructs one backend instance on fresh devices. It panics on
// construction errors: the harness geometries are fixed, so a failure is
// a bug in the backend's constructor, not an input condition.
func build(name string, capacity int64, seed int64) dramcache.Interface {
	spec, ok := dramcache.GetBackend(name)
	if !ok {
		panic(fmt.Sprintf("dctest: unknown backend %q", name))
	}
	cfg := dramcache.BackendConfig{
		CapacityBytes: capacity,
		Ways:          harnessWays,
		Lookup:        dramcache.LookupPredicted,
	}
	if spec.UsesPolicy {
		cfg.Policy = core.NewACCORD(core.DefaultACCORD(cfg.Geometry(), seed))
	}
	dev := dram.New(dram.HBM(), cpu.ClockGHz)
	nvm := dram.New(dram.PCM(), cpu.ClockGHz)
	c, err := spec.New(cfg, dramcache.Deps{Dev: dev, NVM: nvm, Frames: 1 << 16})
	if err != nil {
		panic(fmt.Sprintf("dctest: building backend %q: %v", name, err))
	}
	return c
}

// Backends returns one harness per registered backend, in sorted name
// order. seed differentiates policy RNG streams across suites.
func Backends(seed int64) []Harness {
	var out []Harness
	for _, name := range dramcache.BackendNames() {
		name := name
		out = append(out, Harness{
			Backend:       name,
			New:           func() dramcache.Interface { return build(name, harnessCapacity, seed) },
			NewMismatched: func() dramcache.Interface { return build(name, mismatchedCapacity, seed) },
		})
	}
	return out
}

// opStream generates the deterministic operation mix every check drives
// backends with: reads and writebacks over a footprint 4x the cache, at
// monotonically advancing timestamps.
type opStream struct {
	rng *xrand.Rand
	at  int64
}

func newOpStream(seed int64) *opStream { return &opStream{rng: xrand.New(seed)} }

// footprintLines is 4x the harness capacity, so every organization sees
// real replacement pressure.
const footprintLines = 4 * harnessCapacity / memtypes.LineSize

func (o *opStream) next() (at int64, line memtypes.LineAddr, writeback bool) {
	o.at += int64(o.rng.Intn(50))
	line = memtypes.LineAddr(o.rng.Intn(footprintLines))
	return o.at, line, o.rng.Intn(5) == 0
}

// driveDetailed applies n ops through the timed path.
func driveDetailed(c dramcache.Interface, ops *opStream, n int) {
	for i := 0; i < n; i++ {
		at, line, wb := ops.next()
		if wb {
			c.Writeback(at, line)
		} else {
			c.AccessRead(at, line)
		}
	}
}

// driveFunctional applies n ops through the state-only path. The stream
// advances identically (timestamps are drawn and discarded) so a
// functional drive consumes exactly the ops a detailed drive would.
func driveFunctional(c dramcache.Interface, ops *opStream, n int) {
	for i := 0; i < n; i++ {
		_, line, wb := ops.next()
		if wb {
			c.WritebackFunctional(line)
		} else {
			c.AccessReadFunctional(line)
		}
	}
}

// batchWindows are the window lengths driveBatch cycles through: 1 and
// 2; 16, 32, 64 and 256, whole numbers of groups for a backend that
// walks its window in groups, each with the length one past it; and 15
// and 255, one short of a whole group.
var batchWindows = []int{1, 2, 15, 16, 17, 32, 33, 64, 65, 255, 256, 257}

// driveBatch applies n ops through FunctionalBatch, cutting the stream
// into windows of the batchWindows lengths in turn (the last window is
// cut short at the drive's tail). Flags carry a stray non-write bit on
// some reads: the contract says backends test FunctionalWrite and ignore
// the rest (trace-cache flag bytes arrive unmasked, with the core-side
// Dep bit still set).
func driveBatch(c dramcache.Interface, ops *opStream, n int) {
	lines := make([]memtypes.LineAddr, 0, batchWindows[len(batchWindows)-1])
	flags := make([]uint8, 0, cap(lines))
	for done, w := 0, 0; done < n; w = (w + 1) % len(batchWindows) {
		lines, flags = fillWindow(ops, lines[:0], flags[:0], min(batchWindows[w], n-done))
		c.FunctionalBatch(lines, flags)
		done += len(lines)
	}
}

// fillWindow appends the next sz ops of the stream to lines and flags in
// FunctionalBatch's encoding.
func fillWindow(ops *opStream, lines []memtypes.LineAddr, flags []uint8, sz int) ([]memtypes.LineAddr, []uint8) {
	for i := 0; i < sz; i++ {
		_, line, wb := ops.next()
		lines = append(lines, line)
		var f uint8
		if wb {
			f = dramcache.FunctionalWrite
		} else if i%3 == 0 {
			f = 1 << 1 // stray Dep bit; must be ignored
		}
		flags = append(flags, f)
	}
	return lines, flags
}

// snapshot serializes an instance with the codec's CRC trailer.
func snapshot(t *testing.T, c dramcache.Interface) []byte {
	t.Helper()
	e := ckpt.NewEncoder(0)
	if err := c.Snapshot(e); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return e.Finish()
}

// restore loads a CRC-trailed blob and requires full consumption.
func restore(t *testing.T, c dramcache.Interface, blob []byte) {
	t.Helper()
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatalf("NewDecoderChecked: %v", err)
	}
	if err := c.Restore(d); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after restore", d.Remaining())
	}
}

// RunAll runs the full conformance suite against one backend.
func RunAll(t *testing.T, h Harness) {
	t.Run("functional-equivalence", func(t *testing.T) { checkFunctionalEquivalence(t, h) })
	t.Run("batch-equivalence", func(t *testing.T) { checkBatchEquivalence(t, h) })
	t.Run("batch-zero-alloc", func(t *testing.T) { checkBatchZeroAlloc(t, h) })
	t.Run("checkpoint-roundtrip", func(t *testing.T) { checkCheckpointRoundTrip(t, h) })
	t.Run("fork-copy", func(t *testing.T) { checkForkCopy(t, h) })
	t.Run("stats-invariants", func(t *testing.T) { checkStatsInvariants(t, h) })
	t.Run("codec-adversarial", func(t *testing.T) { checkCodecAdversarial(t, h) })
}

// checkFunctionalEquivalence proves the contract's central promise: a
// functional op sequence leaves byte-identical state (snapshot bytes,
// stats zeroed) to the same detailed sequence, and per-op results agree
// (way and hit must match — they feed the L3's DCP state).
func checkFunctionalEquivalence(t *testing.T, h Harness) {
	det, fun := h.New(), h.New()
	detOps, funOps := newOpStream(11), newOpStream(11)
	const n = 30_000
	for i := 0; i < n; i++ {
		at, line, wb := detOps.next()
		_, fline, fwb := funOps.next()
		if line != fline || wb != fwb {
			t.Fatal("op streams diverged (harness bug)")
		}
		if wb {
			det.Writeback(at, line)
			fun.WritebackFunctional(line)
			continue
		}
		rr := det.AccessRead(at, line)
		way, hit := fun.AccessReadFunctional(line)
		if hit != rr.Hit || way != rr.Way {
			t.Fatalf("op %d line %#x: functional (way %d, hit %v) != detailed (way %d, hit %v)",
				i, uint64(line), way, hit, rr.Way, rr.Hit)
		}
	}
	for name, c := range map[string]dramcache.Interface{"detailed": det, "functional": fun} {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s instance violates invariants: %v", name, err)
		}
	}
	det.ResetStats()
	fun.ResetStats()
	db, fb := snapshot(t, det), snapshot(t, fun)
	if string(db) != string(fb) {
		t.Fatalf("functional warm state diverged from detailed: %d vs %d byte snapshots differ", len(fb), len(db))
	}
}

// checkBatchEquivalence proves FunctionalBatch is exactly the per-event
// functional ops in order: after the same op sequence, the batched and
// the single-stepped instance must have byte-identical snapshots and
// equal stats, regardless of how the sequence was cut into windows.
func checkBatchEquivalence(t *testing.T, h Harness) {
	single, batch := h.New(), h.New()
	singleOps, batchOps := newOpStream(53), newOpStream(53)
	const n = 30_000
	// Mirror driveBatch's flag quirk: the per-event reference must issue
	// the same reads/writebacks, and the stray Dep bit changes nothing on
	// the per-event path by construction.
	driveFunctional(single, singleOps, n)
	driveBatch(batch, batchOps, n)
	if err := batch.CheckInvariants(); err != nil {
		t.Fatalf("batched instance violates invariants: %v", err)
	}
	if *single.Stats() != *batch.Stats() {
		t.Fatalf("batched stats diverged from single-step:\n single %+v\n batch  %+v", *single.Stats(), *batch.Stats())
	}
	if string(snapshot(t, single)) != string(snapshot(t, batch)) {
		t.Fatal("batched state diverged from single-step (snapshot bytes differ)")
	}
}

// checkBatchZeroAlloc pins the batch path's allocation contract: once
// an instance is warm, FunctionalBatch over a 512-event window allocates
// nothing. The sampling spine runs it for nearly every functional event.
func checkBatchZeroAlloc(t *testing.T, h Harness) {
	c := h.New()
	ops := newOpStream(59)
	driveFunctional(c, ops, 20_000)
	lines, flags := fillWindow(ops, nil, nil, 512)
	if avg := testing.AllocsPerRun(20, func() { c.FunctionalBatch(lines, flags) }); avg != 0 {
		t.Fatalf("FunctionalBatch allocated %.1f times per 512-event window, want 0", avg)
	}
}

// checkCheckpointRoundTrip proves snapshot/restore byte-identity and that
// a restored instance behaves identically afterwards (continued ops are
// functional: the snapshot deliberately excludes device timing, so only
// state-path behavior is comparable across instances).
func checkCheckpointRoundTrip(t *testing.T, h Harness) {
	a := h.New()
	driveDetailed(a, newOpStream(23), 20_000)
	blobA := snapshot(t, a)

	b := h.New()
	restore(t, b, blobA)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("restored instance violates invariants: %v", err)
	}
	blobB := snapshot(t, b)
	if string(blobA) != string(blobB) {
		t.Fatal("restore -> snapshot is not byte-identical")
	}
	if *a.Stats() != *b.Stats() {
		t.Fatal("stats diverged after restore")
	}
	for l := memtypes.LineAddr(0); l < footprintLines; l++ {
		aw, aok := a.Contains(l)
		bw, bok := b.Contains(l)
		if aok != bok || aw != bw {
			t.Fatalf("line %#x residency diverged: (%d,%v) != (%d,%v)", uint64(l), aw, aok, bw, bok)
		}
	}

	// Continued behavior: both instances must walk in lockstep.
	aOps, bOps := newOpStream(29), newOpStream(29)
	driveFunctional(a, aOps, 5_000)
	driveFunctional(b, bOps, 5_000)
	if string(snapshot(t, a)) != string(snapshot(t, b)) {
		t.Fatal("instances diverged after post-restore ops")
	}
}

// copier is the optional in-memory fork method the sampled-run driver
// looks for on a backend (outside dramcache.Interface): CopyFrom leaves
// the receiver exactly as restoring src's Snapshot would.
type copier interface {
	CopyFrom(src dramcache.Interface) error
}

// checkForkCopy proves a backend's CopyFrom is a complete, unaliased
// copy: an instance driven 5k ops and then copied from one driven 20k
// other ops snapshots to its source's bytes with equal stats; the copy
// stays put while the source runs 10k more ops, then matches it again
// after the same 10k ops; and once warm a copy allocates nothing. Every
// bundled backend must have the method: without it sampled runs fork
// through the codec.
func checkForkCopy(t *testing.T, h Harness) {
	a, b := h.New(), h.New()
	driveDetailed(a, newOpStream(61), 20_000)
	driveDetailed(b, newOpStream(67), 5_000)
	bc, ok := b.(copier)
	if !ok {
		t.Fatalf("%T has no CopyFrom(dramcache.Interface) error method", b)
	}
	if err := bc.CopyFrom(a); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	copied := snapshot(t, b)
	if string(copied) != string(snapshot(t, a)) {
		t.Fatal("Snapshot(copy) != Snapshot(source)")
	}
	if *a.Stats() != *b.Stats() {
		t.Fatal("stats diverged after copy")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("copied instance violates invariants: %v", err)
	}

	// The same ops, first on the source alone, then on the copy.
	driveFunctional(a, newOpStream(71), 10_000)
	if string(snapshot(t, b)) != string(copied) {
		t.Fatal("driving the source changed the copy: state is shared")
	}
	driveFunctional(b, newOpStream(71), 10_000)
	if string(snapshot(t, b)) != string(snapshot(t, a)) {
		t.Fatal("copy and source diverged after the same ops")
	}
	if *a.Stats() != *b.Stats() {
		t.Fatal("stats diverged after the same ops")
	}

	if avg := testing.AllocsPerRun(20, func() {
		if err := bc.CopyFrom(a); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm CopyFrom allocated %.1f times, want 0", avg)
	}
	if err := bc.CopyFrom(h.NewMismatched()); err == nil {
		t.Error("copy from a differently sized instance accepted")
	}
}

// counterViews enumerates every monotonic Stats counter with its name.
func counterViews(s *dramcache.Stats) []struct {
	name string
	v    uint64
} {
	return []struct {
		name string
		v    uint64
	}{
		{"reads", s.Reads},
		{"read_hits", s.ReadHits},
		{"writebacks", s.Writebacks},
		{"writeback_hits", s.WritebackHits},
		{"predictions", s.Predictions},
		{"correct", s.Correct},
		{"probe_reads", s.ProbeReads},
		{"install_writes", s.InstallWrites},
		{"writeback_writes", s.WritebackWrites},
		{"victim_reads", s.VictimReads},
		{"repl_state_ops", s.ReplStateOps},
		{"nvm_reads", s.NVMReads},
		{"nvm_writes", s.NVMWrites},
		{"filtered_misses", s.FilteredMisses},
		{"hit_latency_count", s.HitLatency.Count},
		{"miss_latency_count", s.MissLatency.Count},
	}
}

// checkStatsInvariants drives one instance and checks counter
// monotonicity plus the accounting identities every organization obeys.
func checkStatsInvariants(t *testing.T, h Harness) {
	c := h.New()
	ops := newOpStream(37)
	prev := make([]uint64, len(counterViews(c.Stats())))
	const rounds, perRound = 10, 2_000
	for r := 0; r < rounds; r++ {
		driveDetailed(c, ops, perRound)
		s := c.Stats()
		for i, cv := range counterViews(s) {
			if cv.v < prev[i] {
				t.Fatalf("round %d: counter %s went backwards: %d -> %d", r, cv.name, prev[i], cv.v)
			}
			prev[i] = cv.v
		}
		switch {
		case s.Reads != s.ReadHits+s.NVMReads:
			t.Fatalf("round %d: reads %d != hits %d + nvm reads %d", r, s.Reads, s.ReadHits, s.NVMReads)
		case s.HitLatency.Count != s.ReadHits:
			t.Fatalf("round %d: hit-latency count %d != read hits %d", r, s.HitLatency.Count, s.ReadHits)
		case s.MissLatency.Count != s.Reads-s.ReadHits:
			t.Fatalf("round %d: miss-latency count %d != misses %d", r, s.MissLatency.Count, s.Reads-s.ReadHits)
		case s.WritebackHits > s.Writebacks:
			t.Fatalf("round %d: writeback hits %d > writebacks %d", r, s.WritebackHits, s.Writebacks)
		case s.Correct > s.Predictions:
			t.Fatalf("round %d: correct %d > predictions %d", r, s.Correct, s.Predictions)
		}
	}
	if s := c.Stats(); s.Reads == 0 || s.ReadHits == 0 || s.Reads == s.ReadHits {
		t.Fatalf("degenerate drive: reads %d, hits %d (harness must produce both hits and misses)", s.Reads, s.ReadHits)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drive: %v", err)
	}
	c.ResetStats()
	if *c.Stats() != (dramcache.Stats{}) {
		t.Fatal("ResetStats left residue")
	}
}

// checkCodecAdversarial feeds the backend's Restore malformed input; the
// contract is reject-with-error, never panic, never silently accept.
func checkCodecAdversarial(t *testing.T, h Harness) {
	c := h.New()
	driveDetailed(c, newOpStream(41), 10_000)
	blob := snapshot(t, c)
	payload := blob[:len(blob)-4] // strip the CRC trailer

	// Baseline: the unmodified blob must restore.
	restore(t, h.New(), blob)

	// Version bump.
	bad := append([]byte{payload[0] + 1}, payload[1:]...)
	if err := h.New().Restore(ckpt.NewDecoder(bad)); err == nil {
		t.Error("version-bumped snapshot accepted")
	}

	// Truncation sweep.
	for n := 0; n < len(payload); n += 1 + n/8 {
		if err := h.New().Restore(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}

	// CRC corruption: a flipped byte anywhere must fail the checked
	// decoder before Restore even runs.
	for _, i := range []int{0, len(blob) / 3, len(blob) / 2, len(blob) - 1} {
		corrupt := append([]byte(nil), blob...)
		corrupt[i] ^= 0x40
		if _, err := ckpt.NewDecoderChecked(corrupt); err == nil {
			t.Errorf("CRC corruption at byte %d accepted", i)
		}
	}

	// Structural mismatch, both directions. A backend may detect the
	// mismatch itself (error) or consume a prefix and leave trailing
	// bytes — which every caller rejects (sim.Restore requires
	// Remaining() == 0) — but it must never panic or silently fit.
	small := h.NewMismatched()
	smallBlob := snapshot(t, small)
	d := ckpt.NewDecoder(payload)
	if err := small.Restore(d); err == nil && d.Remaining() == 0 {
		t.Error("large snapshot silently accepted by smaller instance")
	}
	d = ckpt.NewDecoder(smallBlob[:len(smallBlob)-4])
	if err := h.New().Restore(d); err == nil && d.Remaining() == 0 {
		t.Error("small snapshot silently accepted by larger instance")
	}
}
