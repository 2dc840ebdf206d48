package ckpt

import (
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
	blob, ok, err := store.Load(key, nil)
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

// FuzzLatticeEntry holds Load to its contract: whatever the entry file
// holds, Load returns an error, a miss or a payload, and never panics,
// and a payload it returns passes its own checksum.
// An input is the body of the entry file, re-framed with a valid
// checksum, since a mutation that only broke the checksum would test
// nothing past it. The seed is a valid entry over a 16-byte payload, a
// few dozen bytes, so a short run spends its time executing rather than
// minimizing.
func FuzzLatticeEntry(f *testing.F) {
	entryKey := LatticeEntryKey(fuzzFingerprint, fuzzInterval, fuzzOffset)

	store, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := NewLattice(store, fuzzFingerprint).SaveEntry(fuzzInterval, fuzzOffset, latticePayload(16)); err != nil {
		f.Fatal(err)
	}
	f.Add(fileBody(f, store, entryKey))

	// Every input overwrites the same file of one store.
	store, err = Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	lat := NewLattice(store, fuzzFingerprint)
	f.Fuzz(func(t *testing.T, entry []byte) {
		writeFramed(t, store, entryKey, entry)
		payload, ok, err := lat.Load(fuzzInterval, fuzzOffset, nil)
		if ok && err != nil {
			t.Fatalf("Load reported a hit and an error: %v", err)
		}
		if _, err := NewDecoderChecked(payload); ok && err != nil {
			t.Fatalf("Load hit on a payload that fails its own checksum: %v", err)
		}
	})
}
