package dramcache

import (
	"bytes"
	"encoding/binary"
	"testing"

	"accord/internal/ckpt"
	"accord/internal/core"
	"accord/internal/memtypes"
	"accord/internal/xrand"
)

// ckptCache builds the standard small ACCORD-policy cache used by the
// checkpoint tests; seed differentiates the policy RNG.
func ckptCache(seed int64) *Cache {
	dev, nvm := devices()
	cfg := Config{
		CapacityBytes: 256 * 2 * memtypes.LineSize,
		Ways:          2,
		Lookup:        LookupPredicted,
	}
	pol := core.NewACCORD(core.DefaultACCORD(core.Geometry{Sets: 256, Ways: 2}, seed))
	return New(cfg, pol, dev, nvm)
}

// stir drives the cache with a deterministic read/writeback mix and
// returns the completion cycles.
func stir(c *Cache, n int, seed int64) []int64 {
	rng := xrand.New(seed)
	out := make([]int64, 0, n)
	at := int64(0)
	for i := 0; i < n; i++ {
		at += int64(rng.Intn(50))
		line := memtypes.LineAddr(rng.Intn(2048))
		if i%5 == 0 {
			out = append(out, c.Writeback(at, line))
		} else {
			out = append(out, c.AccessRead(at, line).Done)
		}
	}
	return out
}

// TestCacheRoundTrip restores a churned DRAM cache (tags, LRU-free
// steering state, policy, stats — but NOT its DRAM devices, which the
// sim layer owns) into a fresh instance and checks state equivalence.
func TestCacheRoundTrip(t *testing.T) {
	c := ckptCache(1)
	stir(c, 30_000, 7)
	e := ckpt.NewEncoder(0)
	if err := c.Snapshot(e); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	blob := e.Finish()

	fresh := ckptCache(42)
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
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatalf("restored cache violates invariants: %v", err)
	}
	if *fresh.Stats() != *c.Stats() {
		t.Error("stats diverged after restore")
	}
	for l := memtypes.LineAddr(0); l < 2048; l++ {
		ww, wok := c.Contains(l)
		gw, gok := fresh.Contains(l)
		if wok != gok || ww != gw {
			t.Fatalf("line %d residency diverged: (%d,%v) != (%d,%v)", l, ww, wok, gw, gok)
		}
	}
}

// TestCacheRestoreRejectsBadInput covers version bumps, flag bytes, and
// truncations for the set-associative cache.
func TestCacheRestoreRejectsBadInput(t *testing.T) {
	c := ckptCache(1)
	stir(c, 2000, 3)
	e := ckpt.NewEncoder(0)
	if err := c.Snapshot(e); err != nil {
		t.Fatal(err)
	}
	blob := e.Finish()
	payload := blob[:len(blob)-4]

	bad := append([]byte{payload[0] + 1}, payload[1:]...)
	if err := ckptCache(1).Restore(ckpt.NewDecoder(bad)); err == nil {
		t.Error("version-bumped snapshot accepted")
	}
	for n := 0; n < len(payload); n += 1 + n/8 {
		if err := ckptCache(1).Restore(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// TestCACacheRoundTrip exercises the column-associative codec the same
// way.
func TestCACacheRoundTrip(t *testing.T) {
	c := buildCA(512)
	rng := xrand.New(5)
	at := int64(0)
	for i := 0; i < 20_000; i++ {
		at += int64(rng.Intn(50))
		line := memtypes.LineAddr(rng.Intn(2048))
		if i%6 == 0 {
			c.Writeback(at, line)
		} else {
			c.AccessRead(at, line)
		}
	}
	e := ckpt.NewEncoder(0)
	if err := c.Snapshot(e); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	blob := e.Finish()

	fresh := buildCA(512)
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
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatalf("restored CA-cache violates invariants: %v", err)
	}
	if *fresh.Stats() != *c.Stats() {
		t.Error("stats diverged after restore")
	}
	for l := memtypes.LineAddr(0); l < 2048; l++ {
		ww, wok := c.Contains(l)
		gw, gok := fresh.Contains(l)
		if wok != gok || ww != gw {
			t.Fatalf("line %d residency diverged", l)
		}
	}

	payload := blob[:len(blob)-4]
	for n := 0; n < len(payload); n += 1 + n/8 {
		if err := buildCA(512).Restore(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// TestPackedTagRestoreRejectsBadRecords corrupts one 9-byte tag record in
// the snapshot of each backend sharing the packed tag store: a flags byte
// above 3 or a tag wider than the 62 bits a packed way holds must fail
// the restore, while the widest packable tag restores and re-encodes to
// the same bytes.
func TestPackedTagRestoreRejectsBadRecords(t *testing.T) {
	const capacity = 256 * 4 * memtypes.LineSize
	cases := []struct {
		name  string
		build func() Interface
		// metaOff is the payload offset of meta[0]: the version byte and
		// the backend's fixed header precede it.
		metaOff int
	}{
		{"nway", func() Interface { return ckptCache(1) }, 1 + 8},
		{"gemini", func() Interface {
			dev, nvm := devices()
			g, err := NewGemini(capacity, dev, nvm)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, 1 + 8},
		{"tdram", func() Interface {
			dev, nvm := devices()
			c, err := NewTDRAM(capacity, 4, dev, nvm)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, 1 + 8 + 1},
	}
	snap := func(c Interface) []byte {
		e := ckpt.NewEncoder(0)
		if err := c.Snapshot(e); err != nil {
			t.Fatal(err)
		}
		return e.Finish()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			rng := xrand.New(9)
			for i := 0; i < 4000; i++ {
				line := memtypes.LineAddr(rng.Intn(4096))
				if i%4 == 0 {
					c.Writeback(int64(i), line)
				} else {
					c.AccessRead(int64(i), line)
				}
			}
			blob := snap(c)
			payload := blob[:len(blob)-4]
			const rec = 5 // an arbitrary record past the first
			tagAt, flagsAt := tc.metaOff+rec*9, tc.metaOff+rec*9+8
			if f := payload[flagsAt]; f == 0 || f > 3 {
				t.Fatalf("record %d flags %#x: metaOff does not point at the tag store", rec, f)
			}
			edit := func(f func(p []byte)) []byte {
				p := append([]byte(nil), payload...)
				f(p)
				return p
			}
			for _, bad := range []struct {
				what string
				p    []byte
			}{
				{"flags 4", edit(func(p []byte) { p[flagsAt] = 4 })},
				{"flags 0xff", edit(func(p []byte) { p[flagsAt] = 0xff })},
				{"tag 1<<62", edit(func(p []byte) { binary.LittleEndian.PutUint64(p[tagAt:], 1<<62) })},
				{"tag all ones", edit(func(p []byte) { binary.LittleEndian.PutUint64(p[tagAt:], ^uint64(0)) })},
			} {
				if err := tc.build().Restore(ckpt.NewDecoder(bad.p)); err == nil {
					t.Errorf("%s accepted", bad.what)
				}
			}

			widest := edit(func(p []byte) { binary.LittleEndian.PutUint64(p[tagAt:], 1<<62-1) })
			fresh := tc.build()
			d := ckpt.NewDecoder(widest)
			if err := fresh.Restore(d); err != nil || d.Remaining() != 0 {
				t.Fatalf("62-bit tag rejected: %v (%d bytes left)", err, d.Remaining())
			}
			again := snap(fresh)
			if !bytes.Equal(again[:len(again)-4], widest) {
				t.Error("62-bit tag did not re-encode to the same bytes")
			}
		})
	}
}
