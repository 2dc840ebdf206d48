package vm

import (
	"math/rand"
	"testing"

	"accord/internal/ckpt"
	"accord/internal/memtypes"
)

// build allocates ~pages mappings across two spaces of a fresh system.
func build(seed int64, pages int) (*System, []*Space) {
	s := NewSystem(1<<14, seed)
	sps := []*Space{s.NewSpace(), s.NewSpace()}
	for i := 0; i < pages; i++ {
		sp := sps[i%2]
		sp.TranslateLine(memtypes.LineAddr(uint64(i) * 64 / 2))
	}
	return s, sps
}

// TestSystemRoundTrip restores a populated radix table + allocator into a
// fresh system and requires identical existing translations AND identical
// future allocations (the allocator RNG stream must continue in place).
func TestSystemRoundTrip(t *testing.T) {
	s, sps := build(6, 8000)
	e := ckpt.NewEncoder(0)
	s.Snapshot(e)
	blob := e.Finish()

	fresh, fsps := build(99, 0) // different seed, no mappings
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
	if fresh.AllocatedFrames() != s.AllocatedFrames() {
		t.Fatalf("allocated frames %d != %d", fresh.AllocatedFrames(), s.AllocatedFrames())
	}
	for i := 0; i < 8000; i += 7 {
		vl := memtypes.LineAddr(uint64(i) * 64 / 2)
		if sps[i%2].TranslateLine(vl) != fsps[i%2].TranslateLine(vl) {
			t.Fatalf("existing translation %d diverged", i)
		}
	}
	// New mappings draw from the restored RNG: they must match too.
	for i := 0; i < 2000; i++ {
		vl := memtypes.LineAddr(1<<40 + uint64(i)*64)
		if sps[0].TranslateLine(vl) != fsps[0].TranslateLine(vl) {
			t.Fatalf("new translation %d diverged", i)
		}
	}
}

// TestSystemRestoreRejectsBadInput covers version bumps, a nonzero
// allocation-policy byte, space-count and frame-count mismatches, and
// truncations.
func TestSystemRestoreRejectsBadInput(t *testing.T) {
	s, _ := build(3, 1000)
	e := ckpt.NewEncoder(0)
	s.Snapshot(e)
	blob := e.Finish()
	payload := blob[:len(blob)-4]

	freshSys := func() *System {
		f, _ := build(3, 0)
		return f
	}
	bad := append([]byte{payload[0] + 1}, payload[1:]...)
	if err := freshSys().Restore(ckpt.NewDecoder(bad)); err == nil {
		t.Error("version-bumped snapshot accepted")
	}
	// The policy byte follows the version and the frame count; random
	// allocation, the only policy, is 0.
	bad = append([]byte(nil), payload...)
	bad[9] = 1
	if err := freshSys().Restore(ckpt.NewDecoder(bad)); err == nil {
		t.Error("nonzero allocation-policy byte accepted")
	}
	// One-space system must reject a two-space snapshot.
	one := NewSystem(1<<14, 3)
	one.NewSpace()
	if err := one.Restore(ckpt.NewDecoder(payload)); err == nil {
		t.Error("space-count mismatch accepted")
	}
	// Different frame count must be rejected.
	small := NewSystem(1<<10, 3)
	small.NewSpace()
	small.NewSpace()
	if err := small.Restore(ckpt.NewDecoder(payload)); err == nil {
		t.Error("frame-count mismatch accepted")
	}
	for n := 0; n < len(payload); n += 1 + n/8 {
		if err := freshSys().Restore(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// snapshotOf encodes s with the codec's CRC trailer.
func snapshotOf(s *System) []byte {
	e := ckpt.NewEncoder(0)
	s.Snapshot(e)
	return e.Finish()
}

// restoreInto restores blob into a fresh system of the given shape.
func restoreInto(t *testing.T, blob []byte, frames uint64, spaces int) *System {
	t.Helper()
	s := NewSystem(frames, 99)
	for i := 0; i < spaces; i++ {
		s.NewSpace()
	}
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(d); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return s
}

// touchHistory maps touches pages of sp spread over six disjoint arenas
// (the generator's (i+1)<<36 line bases), 16 leaves wide each, so the
// directories grow well past their initial eight cells.
func touchHistory(sp *Space, rng *rand.Rand, touches int) {
	for i := 0; i < touches; i++ {
		arena := uint64(rng.Intn(6)+1) << 36
		page := uint64(rng.Intn(16 * leafPages))
		sp.TranslateLine(memtypes.LineAddr(arena + page*memtypes.LinesPerPage))
	}
}

// TestRestoreRebuildsDirectoryLayout is a property test over random
// page-touch histories: restoring a snapshot must rebuild the directory
// cell for cell, so the restored system snapshots to the same bytes and
// keeps doing so as both systems map more pages.
func TestRestoreRebuildsDirectoryLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for h := 0; h < 400; h++ {
		touches := 200 + rng.Intn(3001)
		src := NewSystem(1<<13, int64(h))
		sp := src.NewSpace()
		touchHistory(sp, rng, touches)
		blob := snapshotOf(src)
		dst := restoreInto(t, blob, 1<<13, 1)
		if string(snapshotOf(dst)) != string(blob) {
			t.Fatalf("history %d (%d touches): Snapshot(Restore(Snapshot(x))) != Snapshot(x)", h, touches)
		}
		seed := rng.Int63()
		touchHistory(sp, rand.New(rand.NewSource(seed)), 500)
		touchHistory(dst.spaces[0], rand.New(rand.NewSource(seed)), 500)
		if string(snapshotOf(dst)) != string(snapshotOf(src)) {
			t.Fatalf("history %d: restored system diverged after more touches", h)
		}
	}
}

// TestRestoreRejectsUnreachableLeaf swaps two adjacent directory cells so
// the snapshot lists a leaf ahead of the one occupying its home cell.
// Rebuilt in that order, the second leaf could not be found from its home
// cell; Restore must fail instead of losing its mappings.
func TestRestoreRejectsUnreachableLeaf(t *testing.T) {
	s := NewSystem(1<<16, 5)
	sp := s.NewSpace()
	// Two leaves whose home cells in an eight-cell directory are c and c+1.
	var his []uint64
	for hi := uint64(1); len(his) < 2; hi++ {
		home := hashHi(hi) & 7
		if len(his) == 0 && home < 7 || len(his) == 1 && home == hashHi(his[0])&7+1 {
			his = append(his, hi)
		}
	}
	for _, hi := range his {
		sp.TranslateLine(memtypes.LineAddr(hi << leafBits * memtypes.LinesPerPage))
	}
	c := hashHi(his[0]) & 7
	if sp.dir.leaves[c].hi != his[0] || sp.dir.leaves[c+1].hi != his[1] {
		t.Fatal("leaves not in their home cells (test setup)")
	}
	sp.dir.leaves[c], sp.dir.leaves[c+1] = sp.dir.leaves[c+1], sp.dir.leaves[c]
	blob := snapshotOf(s)

	fresh := NewSystem(1<<16, 5)
	fresh.NewSpace()
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(d); err == nil {
		t.Fatal("snapshot with an unreachable leaf accepted")
	}
}

// TestCopyFromMatchesRestore copies a system into one with a different
// history: the copy must snapshot to the source's bytes, translate and
// allocate in lockstep with it afterwards, share no leaf with it, and,
// once warm, copy without allocating.
func TestCopyFromMatchesRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := NewSystem(1<<16, 1)
	dst := NewSystem(1<<16, 2)
	srcSps := []*Space{src.NewSpace(), src.NewSpace()}
	dstSps := []*Space{dst.NewSpace(), dst.NewSpace()}
	for i := range srcSps {
		touchHistory(srcSps[i], rng, 3000)
		touchHistory(dstSps[i], rng, 800)
	}
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	blob := snapshotOf(src)
	if string(snapshotOf(dst)) != string(blob) {
		t.Fatal("Snapshot(copy) != Snapshot(source)")
	}
	if string(snapshotOf(restoreInto(t, blob, 1<<16, 2))) != string(blob) {
		t.Fatal("restore of the same snapshot differs (test setup)")
	}
	for i := range srcSps {
		touchHistory(srcSps[i], rand.New(rand.NewSource(int64(i))), 1500)
		touchHistory(dstSps[i], rand.New(rand.NewSource(int64(i))), 1500)
	}
	if string(snapshotOf(dst)) != string(snapshotOf(src)) {
		t.Fatal("copy diverged from its source after more touches")
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := dst.CopyFrom(src); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm CopyFrom allocated %.1f times, want 0", avg)
	}

	if err := NewSystem(1<<15, 1).CopyFrom(src); err == nil {
		t.Error("copy across frame counts accepted")
	}
	if err := NewSystem(1<<16, 1).CopyFrom(src); err == nil {
		t.Error("copy across space counts accepted")
	}
}
