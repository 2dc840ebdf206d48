package dramcache

import (
	"bytes"
	"testing"

	"accord/internal/ckpt"
	"accord/internal/core"
	"accord/internal/memtypes"
)

// fuzzCaches are the tiny caches FuzzCacheRestore decodes into: 8 sets
// of 2 ways steered by ACCORD with 4-entry region tables, without and
// with LRU replacement, so the seeds hold the tag records, the LRU
// stamps and the policy's tables.
func fuzzCaches() []func() *Cache {
	build := func(lru bool) func() *Cache {
		return func() *Cache {
			dev, nvm := devices()
			cfg := Config{CapacityBytes: 8 * 2 * memtypes.LineSize, Ways: 2, Lookup: LookupPredicted, LRUReplacement: lru}
			acc := core.DefaultACCORD(core.Geometry{Sets: 8, Ways: 2}, 1)
			acc.RITEntries, acc.RLTEntries = 4, 4
			return New(cfg, core.NewACCORD(acc), dev, nvm)
		}
	}
	return []func() *Cache{build(false), build(true)}
}

// restoreCacheFramed restores payload into a fresh cache from build
// after appending a valid CRC-32C, so the bytes reach the decoder
// whatever they are.
func restoreCacheFramed(build func() *Cache, payload []byte) (*Cache, error) {
	e := ckpt.NewEncoder(len(payload) + 4)
	e.Raw(payload)
	d, err := ckpt.NewDecoderChecked(e.Finish())
	if err != nil {
		return nil, err
	}
	c := build()
	return c, c.Restore(d)
}

// cachePayload returns c's snapshot without its CRC.
func cachePayload(tb testing.TB, c *Cache) []byte {
	e := ckpt.NewEncoder(0)
	if err := c.Snapshot(e); err != nil {
		tb.Fatalf("Snapshot: %v", err)
	}
	blob := e.Finish()
	return blob[:len(blob)-4]
}

// FuzzCacheRestore holds Cache.Restore, and with it the packed tag
// records, to its contract on small inputs: whatever the payload, it
// returns an error or succeeds, and never panics; and a restore that
// succeeds is a fixed point, its cache's Snapshot restoring into a fresh
// cache that snapshots to the same bytes. An input picks one of
// fuzzCaches. Each cache seeds its cold snapshot and one after a short
// read and writeback mix, re-framed with a valid checksum: about 5 KB,
// most of it the policy's RNG state.
func FuzzCacheRestore(f *testing.F) {
	caches := fuzzCaches()
	for i, build := range caches {
		for _, events := range []int{0, 200} {
			c := build()
			stir(c, events, int64(i+1))
			payload := cachePayload(f, c)
			if _, err := restoreCacheFramed(build, payload); err != nil {
				f.Fatalf("cache %d after %d events: seed does not restore: %v", i, events, err)
			}
			f.Add(uint8(i), payload)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		build := caches[int(which)%len(caches)]
		c, err := restoreCacheFramed(build, payload)
		if err != nil {
			return
		}
		once := cachePayload(t, c)
		again, err := restoreCacheFramed(build, once)
		if err != nil {
			t.Fatalf("a restored cache's snapshot does not restore: %v", err)
		}
		if !bytes.Equal(cachePayload(t, again), once) {
			t.Fatal("snapshot, restore, snapshot is not a fixed point")
		}
	})
}
