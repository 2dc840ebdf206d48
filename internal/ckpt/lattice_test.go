package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func testLattice(t *testing.T, fp string) (*Lattice, *Store) {
	t.Helper()
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return NewLattice(store, fp), store
}

// saveIndexed persists one boundary the way a sampled run's writer does:
// SaveEntry for the entry, then FlushIndex for the digest chain.
func saveIndexed(t *testing.T, lat *Lattice, interval int, offset int64, payload []byte) {
	t.Helper()
	if err := lat.SaveEntry(interval, offset, payload); err != nil {
		t.Fatalf("save entry: %v", err)
	}
	if err := lat.FlushIndex(); err != nil {
		t.Fatalf("flush index: %v", err)
	}
}

func latticePayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}

func TestLatticeRoundTrip(t *testing.T) {
	lat, _ := testLattice(t, "fp-round-trip")
	payloads := map[int][]byte{
		0: latticePayload(1),
		3: latticePayload(257),
		7: latticePayload(4096),
	}
	offset := func(k int) int64 { return int64(1000 + k*500) }
	for k, p := range payloads {
		if err := lat.SaveEntry(k, offset(k), p); err != nil {
			t.Fatalf("save interval %d: %v", k, err)
		}
	}
	if err := lat.FlushIndex(); err != nil {
		t.Fatalf("flush index: %v", err)
	}
	for k, p := range payloads {
		got, ok := lat.Probe(k, offset(k))
		if !ok {
			t.Fatalf("probe interval %d: miss", k)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("probe interval %d: payload mismatch", k)
		}
	}
	if got, want := lat.Intervals(), []int{0, 3, 7}; len(got) != len(want) {
		t.Fatalf("intervals = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("intervals = %v, want %v", got, want)
			}
		}
	}
}

func TestLatticeMissing(t *testing.T) {
	lat, _ := testLattice(t, "fp-missing")
	if _, ok := lat.Probe(0, 0); ok {
		t.Fatal("probe of empty lattice hit")
	}
	if _, ok, err := lat.Load(5, 500); ok || err != nil {
		t.Fatalf("load of missing entry = (%v, %v), want (false, nil)", ok, err)
	}
}

// A fresh Lattice over the same store and fingerprint must see entries a
// previous instance wrote — that is the cross-run memoization contract.
func TestLatticeReopen(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	p := latticePayload(1024)
	saveIndexed(t, NewLattice(store, "fp-reopen"), 2, 2048, p)
	lat := NewLattice(store, "fp-reopen")
	got, ok := lat.Probe(2, 2048)
	if !ok || !bytes.Equal(got, p) {
		t.Fatalf("reopened probe = (%d bytes, %v), want hit with %d bytes", len(got), ok, len(p))
	}
	if iv := lat.Intervals(); len(iv) != 1 || iv[0] != 2 {
		t.Fatalf("reopened intervals = %v, want [2]", iv)
	}
}

// Keys must separate fingerprints, intervals, and offsets: probing under
// any other coordinate is a miss, never a wrong payload. This is the
// stale-lattice guarantee — changing interval geometry changes the
// offsets (and the fingerprint), so old entries become unreachable.
func TestLatticeKeySeparation(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	lat := NewLattice(store, "fp-a")
	saveIndexed(t, lat, 1, 100, latticePayload(64))
	if _, ok := lat.Probe(2, 100); ok {
		t.Fatal("probe with wrong interval hit")
	}
	if _, ok := lat.Probe(1, 200); ok {
		t.Fatal("probe with wrong offset hit")
	}
	if _, ok := NewLattice(store, "fp-b").Probe(1, 100); ok {
		t.Fatal("probe with wrong fingerprint hit")
	}
}

// entryFile locates the on-disk file behind one lattice entry.
func entryFile(t *testing.T, store *Store, fp string, interval int, offset int64) string {
	t.Helper()
	p := filepath.Join(store.Dir(), LatticeEntryKey(fp, interval, offset)+".ckpt")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry file: %v", err)
	}
	return p
}

// Truncating the stored entry at every possible length must produce a
// miss — no panic, no partial payload.
func TestLatticeEntryTruncationSweep(t *testing.T) {
	const fp = "fp-truncate"
	lat, store := testLattice(t, fp)
	saveIndexed(t, lat, 0, 64, latticePayload(96))
	path := entryFile(t, store, fp, 0, 64)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatalf("truncate to %d: %v", n, err)
		}
		// A fresh lattice so the cached index cannot mask the damage.
		if _, ok := NewLattice(store, fp).Probe(0, 64); ok {
			t.Fatalf("probe hit on entry truncated to %d bytes", n)
		}
	}
}

// Flipping any single bit of the stored entry must produce a miss: the
// wrapper CRC (or, for the trailing checksum bytes themselves, the CRC
// comparison) catches every one-bit change.
func TestLatticeEntryCorruptionSweep(t *testing.T) {
	const fp = "fp-corrupt"
	lat, store := testLattice(t, fp)
	saveIndexed(t, lat, 0, 64, latticePayload(48))
	path := entryFile(t, store, fp, 0, 64)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatalf("corrupt byte %d: %v", i, err)
		}
		if _, ok := NewLattice(store, fp).Probe(0, 64); ok {
			t.Fatalf("probe hit with byte %d corrupted", i)
		}
	}
}

// mutateEntry rewrites one entry file through a callback that edits the
// store payload (after the store magic) and re-frames it with a valid
// CRC, simulating structural damage that a checksum alone cannot catch.
func mutateEntry(t *testing.T, store *Store, fp string, interval int, offset int64, edit func([]byte) []byte) {
	t.Helper()
	path := entryFile(t, store, fp, interval, offset)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	body := full[len(storeMagic):]
	d, err := NewDecoderChecked(body)
	if err != nil {
		t.Fatalf("reframe: %v", err)
	}
	inner := edit(append([]byte(nil), d.Raw(d.Remaining())...))
	e := NewEncoder(len(inner))
	e.Raw(inner)
	if err := os.WriteFile(path, append([]byte(storeMagic), e.Finish()...), 0o644); err != nil {
		t.Fatalf("rewrite entry: %v", err)
	}
}

func TestLatticeEntryStructuralMismatch(t *testing.T) {
	const fp = "fp-structural"
	cases := []struct {
		name string
		edit func([]byte) []byte
	}{
		{"schema bump", func(b []byte) []byte {
			// Schema u32 sits right after the 8-byte magic.
			b[len(latticeEntryMagic)]++
			return b
		}},
		{"magic swap", func(b []byte) []byte {
			copy(b, "ACRDXXXX")
			return b
		}},
		{"payload length overflow", func(b []byte) []byte {
			// The payload-length u32 precedes the payload: magic + schema +
			// fp string (4 + len) + interval u32 + offset i64 + length u32.
			pos := len(latticeEntryMagic) + 4 + 4 + len(fp) + 4 + 8
			b[pos]++
			return b
		}},
		{"payload truncated under length", func(b []byte) []byte {
			return b[:len(b)-1]
		}},
		{"fingerprint swap", func(b []byte) []byte {
			// The fingerprint string body starts after magic+schema+len.
			b[len(latticeEntryMagic)+4+4] ^= 0xFF
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lat, store := testLattice(t, fp)
			saveIndexed(t, lat, 0, 64, latticePayload(32))
			mutateEntry(t, store, fp, 0, 64, tc.edit)
			if _, ok := NewLattice(store, fp).Probe(0, 64); ok {
				t.Fatal("probe hit on structurally damaged entry")
			}
		})
	}
}

// Damage to the index must never block valid entries (they validate on
// their own) and must never let a forged index payload through.
func TestLatticeIndexCorruption(t *testing.T) {
	const fp = "fp-index"
	lat, store := testLattice(t, fp)
	payload := latticePayload(80)
	saveIndexed(t, lat, 0, 64, payload)
	idxPath := filepath.Join(store.Dir(), latticeIndexKey(fp)+".ckpt")
	full, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatalf("read index: %v", err)
	}

	t.Run("corrupt index still probes entries", func(t *testing.T) {
		mut := append([]byte(nil), full...)
		mut[len(mut)/2] ^= 0xFF
		if err := os.WriteFile(idxPath, mut, 0o644); err != nil {
			t.Fatalf("corrupt index: %v", err)
		}
		got, ok := NewLattice(store, fp).Probe(0, 64)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatal("entry probe failed under corrupt index")
		}
		if iv := NewLattice(store, fp).Intervals(); len(iv) != 0 {
			t.Fatalf("corrupt index reported intervals %v", iv)
		}
	})

	t.Run("missing index still probes entries", func(t *testing.T) {
		if err := os.Remove(idxPath); err != nil {
			t.Fatalf("remove index: %v", err)
		}
		got, ok := NewLattice(store, fp).Probe(0, 64)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatal("entry probe failed with index removed")
		}
	})

	t.Run("truncated index sweep", func(t *testing.T) {
		for n := 0; n < len(full); n += 7 {
			if err := os.WriteFile(idxPath, full[:n], 0o644); err != nil {
				t.Fatalf("truncate index to %d: %v", n, err)
			}
			if _, ok := NewLattice(store, fp).Probe(0, 64); !ok {
				t.Fatalf("entry probe failed under index truncated to %d", n)
			}
		}
		if err := os.WriteFile(idxPath, full, 0o644); err != nil {
			t.Fatalf("restore index: %v", err)
		}
	})
}

// When the index and an entry disagree — entry replaced by a validly
// framed blob saved under a different digest — the digest chain turns
// the probe into a miss.
func TestLatticeIndexDigestMismatch(t *testing.T) {
	const fp = "fp-digest"
	lat, store := testLattice(t, fp)
	saveIndexed(t, lat, 0, 64, latticePayload(40))
	// Re-frame the entry with a different payload of the same coordinates
	// (valid CRC, valid header) without updating the index.
	mutateEntry(t, store, fp, 0, 64, func(b []byte) []byte {
		e := NewEncoder(64)
		e.Raw([]byte(latticeEntryMagic))
		e.U32(LatticeSchema)
		e.String(fp)
		e.U32(0)
		e.I64(64)
		other := latticePayload(40)
		other[0] ^= 0xFF
		e.U32(uint32(len(other)))
		e.Raw(other)
		// mutateEntry re-frames with Finish, so hand back the unframed body.
		return e.buf
	})
	if _, ok := NewLattice(store, fp).Probe(0, 64); ok {
		t.Fatal("probe hit on entry whose digest disagrees with the index")
	}
}

// BenchmarkLatticeProbe measures the warm-run fast path: one validated
// lattice lookup (store read, CRC frame, header echo, index digest
// chain) at a spine-snapshot-sized payload. This is the per-boundary
// cost a fully-warm resumed run pays instead of the functional
// fast-forward it memoizes.
func BenchmarkLatticeProbe(b *testing.B) {
	store, err := Open(b.TempDir())
	if err != nil {
		b.Fatalf("open store: %v", err)
	}
	const fp = "fp-bench"
	const intervals = 8
	payload := latticePayload(128 << 10)
	lat := NewLattice(store, fp)
	for k := 0; k < intervals; k++ {
		if err := lat.SaveEntry(k, int64(k*1000), payload); err != nil {
			b.Fatalf("save: %v", err)
		}
	}
	if err := lat.FlushIndex(); err != nil {
		b.Fatalf("flush index: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % intervals
		if _, ok := lat.Probe(k, int64(k*1000)); !ok {
			b.Fatal("probe missed a populated boundary")
		}
	}
}
