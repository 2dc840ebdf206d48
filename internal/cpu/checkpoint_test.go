package cpu

import (
	"testing"

	"accord/internal/ckpt"
	"accord/internal/memtypes"
	"accord/internal/workloads"
)

// fixedLatMem is a deterministic MemorySystem stand-in.
type fixedLatMem struct{ writes int }

func (m *fixedLatMem) Read(at int64, _ memtypes.LineAddr) int64 { return at + 100 }
func (m *fixedLatMem) Write(int64, memtypes.LineAddr)           { m.writes++ }

// noCkptStream is a Stream that serves a window but has no
// Snapshot/Restore support.
type noCkptStream struct{}

func (noCkptStream) Next(ev *workloads.Event) { *ev = workloads.Event{Gap: 1, Line: 1} }
func (noCkptStream) Window() ([]int32, []memtypes.LineAddr, []uint8) {
	return []int32{1}, []memtypes.LineAddr{1}, []uint8{0}
}
func (noCkptStream) Consume(int) {}

func testStream(seed int64) workloads.Stream {
	spec := workloads.Spec{
		Name: "cpu-ckpt", MPKI: 25, WriteFrac: 0.2, DepFrac: 0.5,
		Components: []workloads.Component{{Weight: 1, SizeRatio: 1, StrideLines: 0}},
	}
	return workloads.NewStream(spec, 1<<14, 1, seed)
}

func testCore(seed int64) *Core {
	ident := func(l memtypes.LineAddr) memtypes.LineAddr { return l }
	return New(0, DefaultParams(), testStream(seed), ident, &fixedLatMem{})
}

// TestCoreRoundTrip restores a mid-flight core (with its stream) into a
// fresh one and requires the continued trajectories to match cycle for
// cycle.
func TestCoreRoundTrip(t *testing.T) {
	c := testCore(8)
	for c.Instructions() < 50_000 {
		c.Step()
	}
	e := ckpt.NewEncoder(0)
	if err := c.Snapshot(e); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	blob := e.Finish()

	fresh := testCore(999)
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(d); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after restore", d.Remaining())
	}
	for i := 0; i < 50_000; i++ {
		c.Step()
		fresh.Step()
		if c.Time() != fresh.Time() || c.Instructions() != fresh.Instructions() {
			t.Fatalf("step %d diverged: t=%d/%d instr=%d/%d",
				i, c.Time(), fresh.Time(), c.Instructions(), fresh.Instructions())
		}
	}
	r1, w1, d1, m1 := c.Counters()
	r2, w2, d2, m2 := fresh.Counters()
	if r1 != r2 || w1 != w2 || d1 != d2 || m1 != m2 {
		t.Error("cumulative counters diverged after restore")
	}
	if c.WindowInstructions() != fresh.WindowInstructions() ||
		c.WindowCycles() != fresh.WindowCycles() {
		t.Error("window marks diverged after restore")
	}
}

// TestCoreSnapshotRequiresCheckpointableStream pins the error path for
// streams that cannot be checkpointed.
func TestCoreSnapshotRequiresCheckpointableStream(t *testing.T) {
	ident := func(l memtypes.LineAddr) memtypes.LineAddr { return l }
	c := New(0, DefaultParams(), noCkptStream{}, ident, &fixedLatMem{})
	if err := c.Snapshot(ckpt.NewEncoder(0)); err == nil {
		t.Error("Snapshot succeeded with a non-checkpointable stream")
	}
}

// TestCoreRestoreRejectsBadInput covers version bumps, MSHR-count
// mismatches, and truncations.
func TestCoreRestoreRejectsBadInput(t *testing.T) {
	c := testCore(8)
	for c.Instructions() < 5000 {
		c.Step()
	}
	e := ckpt.NewEncoder(0)
	if err := c.Snapshot(e); err != nil {
		t.Fatal(err)
	}
	blob := e.Finish()
	payload := blob[:len(blob)-4]

	bad := append([]byte{payload[0] + 1}, payload[1:]...)
	if err := testCore(8).Restore(ckpt.NewDecoder(bad)); err == nil {
		t.Error("version-bumped snapshot accepted")
	}
	// A core with a different MSHR count must reject the snapshot.
	p := DefaultParams()
	p.MSHRs = 4
	ident := func(l memtypes.LineAddr) memtypes.LineAddr { return l }
	other := New(0, p, testStream(8), ident, &fixedLatMem{})
	if err := other.Restore(ckpt.NewDecoder(payload)); err == nil {
		t.Error("MSHR-count mismatch accepted")
	}
	for n := 0; n < len(payload); n += 1 + n/8 {
		if err := testCore(8).Restore(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}
