package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The coordinates of the one entry FuzzLatticeEntry stores.
const (
	fuzzFingerprint = "fuzz"
	fuzzInterval    = 0
	fuzzOffset      = 64
)

// fileBody returns what a store file holds between the store magic and
// the CRC-32C.
func fileBody(tb testing.TB, store *Store, key string) []byte {
	tb.Helper()
	blob, ok, err := store.Load(key)
	if err != nil || !ok || len(blob) < 4 {
		tb.Fatalf("load %s: ok=%t err=%v", key, ok, err)
	}
	return blob[:len(blob)-4]
}

// writeFramed writes the store file of key: the store magic, body and a
// valid CRC-32C. It writes in place, without Store.Save's temp file and
// rename, which would cost each fuzz input more than the lookups do.
func writeFramed(tb testing.TB, store *Store, key string, body []byte) {
	tb.Helper()
	e := NewEncoder(len(body) + 4)
	e.Raw(body)
	file := append([]byte(storeMagic), e.Finish()...)
	if err := os.WriteFile(filepath.Join(store.Dir(), key+".ckpt"), file, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// FuzzLatticeEntry holds the lattice lookups to their contract: whatever
// the entry and index files hold, Load returns an error, a miss or a
// payload, Probe misses or hits, and neither panics. An input is the
// body of the entry file and of the index file; both are re-framed with
// a valid checksum, since a mutation that only broke a checksum would
// test nothing past it. A Probe hit must return the payload Load
// returns. The seeds are a valid entry over a 16-byte payload and that
// entry's index, a few dozen bytes each, so a short run spends its time
// executing rather than minimizing.
func FuzzLatticeEntry(f *testing.F) {
	entryKey := LatticeEntryKey(fuzzFingerprint, fuzzInterval, fuzzOffset)
	indexKey := latticeIndexKey(fuzzFingerprint)

	store, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	lat := NewLattice(store, fuzzFingerprint)
	if err := lat.SaveEntry(fuzzInterval, fuzzOffset, latticePayload(16)); err != nil {
		f.Fatal(err)
	}
	if err := lat.FlushIndex(); err != nil {
		f.Fatal(err)
	}
	f.Add(fileBody(f, store, entryKey), fileBody(f, store, indexKey))

	// Every input overwrites the same two files of one store.
	store, err = Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, entry, index []byte) {
		writeFramed(t, store, entryKey, entry)
		writeFramed(t, store, indexKey, index)
		loaded, ok, err := NewLattice(store, fuzzFingerprint).Load(fuzzInterval, fuzzOffset)
		if ok && err != nil {
			t.Fatalf("Load reported a hit and an error: %v", err)
		}
		probed, hit := NewLattice(store, fuzzFingerprint).Probe(fuzzInterval, fuzzOffset)
		if hit && (!ok || !bytes.Equal(probed, loaded)) {
			t.Fatalf("Probe hit with %d bytes where Load gave ok=%t and %d bytes", len(probed), ok, len(loaded))
		}
		_ = NewLattice(store, fuzzFingerprint).Intervals()
	})
}
