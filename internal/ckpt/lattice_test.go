package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func testLattice(t *testing.T, fp string) (*Lattice, string) {
	t.Helper()
	dir := t.TempDir()
	lat, err := OpenLattice(dir, fp)
	if err != nil {
		t.Fatalf("open lattice: %v", err)
	}
	return lat, dir
}

func saveEntry(t *testing.T, lat *Lattice, interval int, payload []byte) {
	t.Helper()
	if err := lat.SaveEntry(interval, payload); err != nil {
		t.Fatalf("save entry: %v", err)
	}
}

// hits reports whether lat's entry for interval loads and validates, the
// only outcome a caller treats as a hit.
func hits(lat *Lattice, interval int) bool {
	_, ok, err := lat.Load(interval, nil)
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
	for k, p := range payloads {
		saveEntry(t, lat, k, p)
	}
	for k, p := range payloads {
		got, ok, err := lat.Load(k, nil)
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
	if _, ok, err := lat.Load(5, nil); ok || err != nil {
		t.Fatalf("load of missing entry = (%v, %v), want (false, nil)", ok, err)
	}
}

// TestStoreRoundTrip checks one entry's store contract: a load before
// the save misses without an error, and a load after it returns the
// saved payload.
func TestStoreRoundTrip(t *testing.T) {
	lat, _ := testLattice(t, "fp-store")
	if _, ok, err := lat.Load(0, nil); ok || err != nil {
		t.Fatalf("load before save: ok=%v err=%v", ok, err)
	}
	p := latticePayload(16)
	saveEntry(t, lat, 0, p)
	got, ok, err := lat.Load(0, nil)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, p) {
		t.Errorf("load = %x, want %x", got, p)
	}
}

func TestOpenEmptyDir(t *testing.T) {
	if _, err := OpenLattice("", "fp"); err == nil {
		t.Error(`OpenLattice("") accepted`)
	}
}

// A fresh Lattice over the same directory and fingerprint must see
// entries a previous instance wrote — that is the cross-run memoization
// contract.
func TestLatticeReopen(t *testing.T) {
	lat, dir := testLattice(t, "fp-reopen")
	p := latticePayload(1024)
	saveEntry(t, lat, 2, p)
	again, err := OpenLattice(dir, "fp-reopen")
	if err != nil {
		t.Fatalf("reopen lattice: %v", err)
	}
	got, ok, err := again.Load(2, nil)
	if !ok || err != nil || !bytes.Equal(got, p) {
		t.Fatalf("reopened load = (%d bytes, %v, %v), want hit with %d bytes", len(got), ok, err, len(p))
	}
}

// Keys must separate fingerprints and intervals: probing under any other
// coordinate is a miss, never a wrong payload. This is the stale-lattice
// guarantee — changing interval geometry changes the fingerprint, so old
// entries become unreachable.
func TestLatticeKeySeparation(t *testing.T) {
	lat, dir := testLattice(t, "fp-a")
	saveEntry(t, lat, 1, latticePayload(64))
	if hits(lat, 2) {
		t.Fatal("load with wrong interval hit")
	}
	other, err := OpenLattice(dir, "fp-b")
	if err != nil {
		t.Fatalf("open lattice: %v", err)
	}
	if hits(other, 1) {
		t.Fatal("load with wrong fingerprint hit")
	}
}

// entryFile locates the on-disk file behind one lattice entry.
func entryFile(t *testing.T, dir, fp string, interval int) string {
	t.Helper()
	p := filepath.Join(dir, LatticeEntryKey(fp, interval)+".ckpt")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry file: %v", err)
	}
	return p
}

// Truncating the stored entry at every possible length must produce a
// miss — no panic, no partial payload.
func TestLatticeEntryTruncationSweep(t *testing.T) {
	const fp = "fp-truncate"
	lat, dir := testLattice(t, fp)
	saveEntry(t, lat, 0, latticePayload(96))
	path := entryFile(t, dir, fp, 0)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatalf("truncate to %d: %v", n, err)
		}
		if hits(lat, 0) {
			t.Fatalf("load hit on entry truncated to %d bytes", n)
		}
	}
}

// Flipping any single bit of the stored entry must produce a miss: a
// header bit fails the header's echo checks, and a payload bit, its CRC
// word's included, fails the payload's own CRC-32C, which catches every
// one-bit change.
func TestLatticeEntryCorruptionSweep(t *testing.T) {
	const fp = "fp-corrupt"
	lat, dir := testLattice(t, fp)
	saveEntry(t, lat, 0, latticePayload(48))
	path := entryFile(t, dir, fp, 0)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	for i := 0; i < len(full); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(full)
			mut[i] ^= 1 << bit
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatalf("corrupt byte %d: %v", i, err)
			}
			if hits(lat, 0) {
				t.Fatalf("load hit with bit %d of byte %d flipped", bit, i)
			}
		}
	}
}

// TestLatticeEntryStructuralMismatch edits the entry file's header and
// length, or replaces the file, and requires a miss.
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
			// fp string (4 + len) + interval u32 + length u32.
			pos := len(latticeEntryMagic) + 4 + 4 + len(fp) + 4
			b[pos]++
			return b
		}},
		{"payload truncated under length", func(b []byte) []byte {
			return b[:len(b)-1]
		}},
		{"trailing byte", func(b []byte) []byte {
			return append(b, 0)
		}},
		{"fingerprint swap", func(b []byte) []byte {
			// The fingerprint string body starts after magic+schema+len.
			b[len(latticeEntryMagic)+4+4] ^= 0xFF
			return b
		}},
		{"foreign file", func([]byte) []byte {
			return []byte("not a checkpoint")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lat, dir := testLattice(t, fp)
			saveEntry(t, lat, 0, latticePayload(32))
			path := entryFile(t, dir, fp, 0)
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read entry: %v", err)
			}
			if err := os.WriteFile(path, tc.edit(full), 0o644); err != nil {
				t.Fatalf("rewrite entry: %v", err)
			}
			if _, ok, err := lat.Load(0, nil); ok || err == nil {
				t.Fatalf("load of a structurally damaged entry = (%v, %v), want a miss with an error", ok, err)
			}
		})
	}
}

// TestLatticePayloadChecksum pins the one checksum Load checks: an entry
// whose header is intact but whose payload is not a well-framed
// Encoder.Finish blob (a damaged body or CRC word, or a payload too
// short to hold a CRC) must miss.
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
			saveEntry(t, lat, 0, tc.payload)
			if hits(lat, 0) {
				t.Fatal("load hit on an entry whose payload fails its own checksum")
			}
		})
	}
}

// TestStoreLoadIntoBuffer checks that Load reads into the caller's
// buffer when the file fits, replaces it when the file does not, leaves
// no bytes of an earlier, longer entry in a later one, and leaves the
// buffer alone on a miss.
func TestStoreLoadIntoBuffer(t *testing.T) {
	lat, _ := testLattice(t, "fp-into-buffer")
	long, short := latticePayload(10_000), latticePayload(5)
	saveEntry(t, lat, 0, long)
	saveEntry(t, lat, 1, short)
	buf := make([]byte, 0, 16)
	got, ok, err := lat.Load(0, &buf)
	if err != nil || !ok || !bytes.Equal(got, long) {
		t.Fatalf("load into a small buffer: ok=%v err=%v len=%d", ok, err, len(got))
	}
	if cap(buf) < len(long) {
		t.Fatalf("buffer not grown: cap %d", cap(buf))
	}
	grown := &buf[:1][0]
	got, ok, err = lat.Load(1, &buf)
	if err != nil || !ok || !bytes.Equal(got, short) {
		t.Fatalf("load into a large buffer: ok=%v err=%v got %x", ok, err, got)
	}
	if &buf[:1][0] != grown || &got[len(got)-1] != &buf[len(buf)-1] {
		t.Fatal("load of an entry that fits did not read into the caller's buffer")
	}
	before := cap(buf)
	if _, ok, err := lat.Load(2, &buf); ok || err != nil || cap(buf) != before || &buf[:1][0] != grown {
		t.Fatalf("load of a missing entry into a buffer: ok=%v err=%v cap %d -> %d", ok, err, before, cap(buf))
	}
}

// TestLatticeLoadReusesBuffer checks that loads into one buffer return
// each entry's payload intact, as a slice of that buffer, and once the
// buffer holds the largest, reuse it; a miss leaves it alone.
func TestLatticeLoadReusesBuffer(t *testing.T) {
	lat, _ := testLattice(t, "fp-reuse")
	sizes := []int{4096, 100, 4000, 0}
	for k, n := range sizes {
		saveEntry(t, lat, k, latticePayload(n))
	}
	var buf []byte
	for round := 0; round < 2; round++ {
		for k, n := range sizes {
			before := cap(buf)
			got, ok, err := lat.Load(k, &buf)
			if !ok || err != nil {
				t.Fatalf("round %d: load %d: ok=%t err=%v", round, k, ok, err)
			}
			if !bytes.Equal(got, latticePayload(n)) {
				t.Fatalf("round %d: load %d: payload mismatch", round, k)
			}
			if &got[len(got)-1] != &buf[len(buf)-1] {
				t.Fatalf("round %d: load %d did not read into the caller's buffer", round, k)
			}
			if (round > 0 || k > 0) && cap(buf) != before {
				t.Fatalf("round %d: load %d regrew the buffer from %d to %d bytes", round, k, before, cap(buf))
			}
		}
	}
	before := cap(buf)
	if _, ok, err := lat.Load(len(sizes), &buf); ok || err != nil || cap(buf) != before {
		t.Fatalf("load of a missing entry into a buffer: ok=%v err=%v cap %d -> %d", ok, err, before, cap(buf))
	}
}

// TestLatticeConcurrentSaves saves and loads one entry from eight
// goroutines at once: every load must see a whole entry, never a torn
// one.
func TestLatticeConcurrentSaves(t *testing.T) {
	lat, _ := testLattice(t, "fp-concurrent")
	p := latticePayload(1 << 16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := lat.SaveEntry(3, p); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				got, ok, err := lat.Load(3, nil)
				if err != nil || !ok || !bytes.Equal(got, p) {
					t.Errorf("load mid-write: ok=%v err=%v len=%d", ok, err, len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSaveEntryDoesNotCopyPayload bounds what saving a 4 MiB payload
// allocates: the header and the temp file, not a framed copy.
func TestSaveEntryDoesNotCopyPayload(t *testing.T) {
	lat, _ := testLattice(t, "fp-save-alloc")
	p := latticePayload(4 << 20)
	saveEntry(t, lat, 0, p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	saveEntry(t, lat, 0, p)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("saving a %d-byte payload allocated %d bytes, want under 64 KiB", len(p), n)
	}
}

// BenchmarkLatticeProbe measures the warm-run fast path: one validated
// lattice lookup (file read, header echo, the payload's CRC pass) at a
// spine-snapshot-sized payload, read into one reused buffer as the
// spine reads its probes. This is the per-boundary cost a fully-warm
// resumed run pays instead of the functional fast-forward it memoizes.
func BenchmarkLatticeProbe(b *testing.B) {
	lat, err := OpenLattice(b.TempDir(), "fp-bench")
	if err != nil {
		b.Fatalf("open lattice: %v", err)
	}
	const intervals = 8
	payload := latticePayload(128 << 10)
	for k := 0; k < intervals; k++ {
		if err := lat.SaveEntry(k, payload); err != nil {
			b.Fatalf("save: %v", err)
		}
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := lat.Load(i%intervals, &buf); !ok || err != nil {
			b.Fatalf("load missed a populated boundary: %v", err)
		}
	}
}
