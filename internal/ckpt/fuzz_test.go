package ckpt

import (
	"os"
	"testing"
)

// The coordinates of the one entry FuzzLatticeEntry stores.
const (
	fuzzFingerprint = "fuzz"
	fuzzInterval    = 0
)

// FuzzLatticeEntry holds Load to its contract: whatever the entry file
// holds, Load returns an error, a miss or a payload, and never panics,
// and a payload it returns passes its own checksum. An input is the
// whole entry file, so every mutation reaches the header echo and the
// payload's CRC. The seed is a valid entry over a 16-byte payload, a few
// dozen bytes, so a short run spends its time executing rather than
// minimizing.
func FuzzLatticeEntry(f *testing.F) {
	seed, err := OpenLattice(f.TempDir(), fuzzFingerprint)
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.SaveEntry(fuzzInterval, latticePayload(16)); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(seed.path(fuzzInterval))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)

	// Every input overwrites the same file of one directory, in place:
	// SaveEntry's temp file and rename would cost each input more than
	// the lookup does.
	lat, err := OpenLattice(f.TempDir(), fuzzFingerprint)
	if err != nil {
		f.Fatal(err)
	}
	path := lat.path(fuzzInterval)
	f.Fuzz(func(t *testing.T, entry []byte) {
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, ok, err := lat.Load(fuzzInterval, nil)
		if ok && err != nil {
			t.Fatalf("Load reported a hit and an error: %v", err)
		}
		if _, err := NewDecoderChecked(payload); ok && err != nil {
			t.Fatalf("Load hit on a payload that fails its own checksum: %v", err)
		}
	})
}
