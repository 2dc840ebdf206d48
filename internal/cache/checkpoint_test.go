package cache

import (
	"testing"

	"accord/internal/ckpt"
	"accord/internal/memtypes"
	"accord/internal/xrand"
)

func testCache() *Cache {
	return New(Config{Name: "l2t", SizeBytes: 64 * memtypes.LineSize, Ways: 4, HitLatency: 3})
}

// churn drives a cache through a deterministic mixed access pattern.
func churn(c *Cache, n int, seed int64) {
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		l := memtypes.LineAddr(rng.Intn(256))
		if c.Lookup(l, i%3 == 0) {
			continue
		}
		c.Fill(l, i%5 == 0, DCP{Present: i%2 == 0, Way: uint8(i % 4)})
	}
}

// TestCacheRoundTrip restores a churned cache into a fresh one and
// requires identical subsequent behavior, stats, and DCP state.
func TestCacheRoundTrip(t *testing.T) {
	c := testCache()
	churn(c, 10_000, 9)
	e := ckpt.NewEncoder(0)
	c.Snapshot(e)
	blob := e.Finish()

	fresh := testCache()
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(d); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatalf("restored cache violates invariants: %v", err)
	}
	if fresh.Stats() != c.Stats() {
		t.Errorf("stats diverged: %+v != %+v", fresh.Stats(), c.Stats())
	}
	for l := memtypes.LineAddr(0); l < 256; l++ {
		if c.Contains(l) != fresh.Contains(l) {
			t.Fatalf("line %d presence diverged", l)
		}
		wd, wok := c.GetDCP(l)
		gd, gok := fresh.GetDCP(l)
		if wok != gok || wd != gd {
			t.Fatalf("line %d DCP diverged", l)
		}
	}
	// Continued identical churn must keep the two in lockstep (LRU clock
	// and timestamps restored exactly).
	churn(c, 5000, 31)
	churn(fresh, 5000, 31)
	if fresh.Stats() != c.Stats() {
		t.Errorf("post-restore churn diverged: %+v != %+v", fresh.Stats(), c.Stats())
	}
}

// TestCacheRestoreRejectsBadInput covers version bumps, flag bytes out of
// range, and truncations.
func TestCacheRestoreRejectsBadInput(t *testing.T) {
	c := testCache()
	churn(c, 1000, 2)
	e := ckpt.NewEncoder(0)
	c.Snapshot(e)
	blob := e.Finish()
	payload := blob[:len(blob)-4]

	bad := append([]byte{payload[0] + 1}, payload[1:]...)
	if err := testCache().Restore(ckpt.NewDecoder(bad)); err == nil {
		t.Error("version-bumped snapshot accepted")
	}
	for n := 0; n < len(payload); n += 1 + n/8 {
		if err := testCache().Restore(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// TestHierarchyRoundTrip exercises the composed L1+L2 codec.
func TestHierarchyRoundTrip(t *testing.T) {
	cfg := DefaultHierarchy(1 << 20)
	hiers, _ := NewSharedHierarchies(cfg, 2)
	h := hiers[0]
	rng := xrand.New(4)
	for i := 0; i < 20_000; i++ {
		h.Access(memtypes.LineAddr(rng.Intn(4096)), i%4 == 0)
	}
	e := ckpt.NewEncoder(0)
	h.Snapshot(e)
	blob := e.Finish()

	fresh, _ := NewSharedHierarchies(cfg, 2)
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh[0].Restore(d); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after hierarchy restore", d.Remaining())
	}

	payload := blob[:len(blob)-4]
	for n := 0; n < len(payload); n += 1 + n/8 {
		f2, _ := NewSharedHierarchies(cfg, 2)
		if err := f2[0].Restore(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// snapshotBytes encodes anything with a cache-style Snapshot.
func snapshotBytes(s interface{ Snapshot(*ckpt.Encoder) }) string {
	e := ckpt.NewEncoder(0)
	s.Snapshot(e)
	return string(e.Finish())
}

// TestCacheCopyFrom copies a cache churned 20k accesses into one churned
// 5k others: the copy must snapshot to the source's bytes, stay put while
// the source churns on, match it again after the same churn, and copy
// without allocating once warm.
func TestCacheCopyFrom(t *testing.T) {
	a, b := testCache(), testCache()
	churn(a, 20_000, 9)
	churn(b, 5_000, 10)
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	copied := snapshotBytes(b)
	if copied != snapshotBytes(a) {
		t.Fatal("Snapshot(copy) != Snapshot(source)")
	}
	churn(a, 10_000, 31)
	if snapshotBytes(b) != copied {
		t.Fatal("churning the source changed the copy: state is shared")
	}
	churn(b, 10_000, 31)
	if snapshotBytes(b) != snapshotBytes(a) || b.Stats() != a.Stats() {
		t.Fatal("copy and source diverged after the same churn")
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := b.CopyFrom(a); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm CopyFrom allocated %.1f times, want 0", avg)
	}
	if err := b.CopyFrom(New(smallCfg())); err == nil {
		t.Error("copy across geometries accepted")
	}
}

// TestHierarchyCopyFrom does the same for the private L1/L2 pair; the
// shared L3 is the composing system's to copy.
func TestHierarchyCopyFrom(t *testing.T) {
	cfg := DefaultHierarchy(1 << 20)
	src, _ := NewSharedHierarchies(cfg, 1)
	dst, _ := NewSharedHierarchies(cfg, 1)
	access := func(h *Hierarchy, n int, seed int64) {
		rng := xrand.New(seed)
		for i := 0; i < n; i++ {
			h.Access(memtypes.LineAddr(rng.Intn(4096)), i%4 == 0)
		}
	}
	access(src[0], 20_000, 4)
	access(dst[0], 5_000, 5)
	if err := dst[0].CopyFrom(src[0]); err != nil {
		t.Fatal(err)
	}
	if snapshotBytes(dst[0]) != snapshotBytes(src[0]) {
		t.Fatal("Snapshot(copy) != Snapshot(source)")
	}
	access(src[0], 10_000, 6)
	access(dst[0], 10_000, 6)
	if snapshotBytes(dst[0]) != snapshotBytes(src[0]) {
		t.Fatal("copy and source diverged after the same accesses")
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := dst[0].CopyFrom(src[0]); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm CopyFrom allocated %.1f times, want 0", avg)
	}
}
