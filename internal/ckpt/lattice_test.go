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

func saveEntry(t *testing.T, lat *Lattice, interval int, offset int64, payload []byte) {
	t.Helper()
	if err := lat.SaveEntry(interval, offset, payload); err != nil {
		t.Fatalf("save entry: %v", err)
	}
}

// hits reports whether lat's entry for (interval, offset) loads and
// validates, the only outcome a caller treats as a hit.
func hits(lat *Lattice, interval int, offset int64) bool {
	_, ok, err := lat.Load(interval, offset, nil)
	return ok && err == nil
}

// latticePayload returns an Encoder.Finish blob over n patterned bytes,
// the payload shape Load requires.
func latticePayload(n int) []byte {
	e := NewEncoder(n + 4)
	for i := range e.Reserve(n) {
		e.buf[i] = byte(i*7 + 3)
	}
	return e.Finish()
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
		saveEntry(t, lat, k, offset(k), p)
	}
	for k, p := range payloads {
		got, ok, err := lat.Load(k, offset(k), nil)
		if !ok || err != nil {
			t.Fatalf("load interval %d: ok=%t err=%v", k, ok, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("load interval %d: payload mismatch", k)
		}
	}
}

func TestLatticeMissing(t *testing.T) {
	lat, _ := testLattice(t, "fp-missing")
	if _, ok, err := lat.Load(5, 500, nil); ok || err != nil {
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
	saveEntry(t, NewLattice(store, "fp-reopen"), 2, 2048, p)
	got, ok, err := NewLattice(store, "fp-reopen").Load(2, 2048, nil)
	if !ok || err != nil || !bytes.Equal(got, p) {
		t.Fatalf("reopened load = (%d bytes, %v, %v), want hit with %d bytes", len(got), ok, err, len(p))
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
	saveEntry(t, lat, 1, 100, latticePayload(64))
	if hits(lat, 2, 100) {
		t.Fatal("load with wrong interval hit")
	}
	if hits(lat, 1, 200) {
		t.Fatal("load with wrong offset hit")
	}
	if hits(NewLattice(store, "fp-b"), 1, 100) {
		t.Fatal("load with wrong fingerprint hit")
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
	saveEntry(t, lat, 0, 64, latticePayload(96))
	path := entryFile(t, store, fp, 0, 64)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatalf("truncate to %d: %v", n, err)
		}
		if hits(lat, 0, 64) {
			t.Fatalf("load hit on entry truncated to %d bytes", n)
		}
	}
}

// Flipping any single bit of the stored entry must produce a miss: the
// wrapper CRC (or, for the trailing checksum bytes themselves, the CRC
// comparison) catches every one-bit change.
func TestLatticeEntryCorruptionSweep(t *testing.T) {
	const fp = "fp-corrupt"
	lat, store := testLattice(t, fp)
	saveEntry(t, lat, 0, 64, latticePayload(48))
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
		if hits(lat, 0, 64) {
			t.Fatalf("load hit with byte %d corrupted", i)
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
			saveEntry(t, lat, 0, 64, latticePayload(32))
			mutateEntry(t, store, fp, 0, 64, tc.edit)
			if hits(lat, 0, 64) {
				t.Fatal("load hit on structurally damaged entry")
			}
		})
	}
}

// TestLatticePayloadChecksum pins the second frame Load checks: an entry
// whose own frame is intact but whose payload is not a well-framed
// Encoder.Finish blob (a damaged body under a recomputed entry CRC, or a
// payload too short to hold a CRC) must miss.
func TestLatticePayloadChecksum(t *testing.T) {
	const fp = "fp-payload-crc"
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"body flipped", func() []byte {
			p := latticePayload(64)
			p[10] ^= 0x01
			return p
		}()},
		{"crc word flipped", func() []byte {
			p := latticePayload(64)
			p[len(p)-1] ^= 0x80
			return p
		}()},
		{"too short", []byte{1, 2, 3}},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lat, _ := testLattice(t, fp)
			saveEntry(t, lat, 0, 64, tc.payload)
			if hits(lat, 0, 64) {
				t.Fatal("load hit on an entry whose payload fails its own checksum")
			}
		})
	}
}

// TestLatticeLoadReusesBuffer checks that loads into one buffer return
// each entry's payload intact and, once the buffer holds the largest,
// reuse it.
func TestLatticeLoadReusesBuffer(t *testing.T) {
	lat, _ := testLattice(t, "fp-reuse")
	sizes := []int{4096, 100, 4000, 0}
	for k, n := range sizes {
		saveEntry(t, lat, k, int64(k), latticePayload(n))
	}
	var buf []byte
	for round := 0; round < 2; round++ {
		for k, n := range sizes {
			before := cap(buf)
			got, ok, err := lat.Load(k, int64(k), &buf)
			if !ok || err != nil {
				t.Fatalf("round %d: load %d: ok=%t err=%v", round, k, ok, err)
			}
			if !bytes.Equal(got, latticePayload(n)) {
				t.Fatalf("round %d: load %d: payload mismatch", round, k)
			}
			if (round > 0 || k > 0) && cap(buf) != before {
				t.Fatalf("round %d: load %d regrew the buffer from %d to %d bytes", round, k, before, cap(buf))
			}
		}
	}
}

// BenchmarkLatticeProbe measures the warm-run fast path: one validated
// lattice lookup (store read, both CRC frames in one pass, header echo)
// at a spine-snapshot-sized payload, read into one reused buffer as the
// spine reads its probes. This is the per-boundary cost a fully-warm
// resumed run pays instead of the functional fast-forward it memoizes.
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
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % intervals
		if _, ok, err := lat.Load(k, int64(k*1000), &buf); !ok || err != nil {
			b.Fatalf("load missed a populated boundary: %v", err)
		}
	}
}
