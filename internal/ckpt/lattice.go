package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Spine checkpoint lattice: a family of content-addressed entries in a
// checkpoint directory, one per saved interval boundary of a sampled
// run. An exact run's warm state is a one-entry lattice, boundary 0. The
// lattice is keyed by a caller-supplied fingerprint covering everything
// that determines boundary state (configuration, workload, interval
// geometry); each entry additionally keys on its interval number, so a
// geometry change moves every key and a stale lattice can only miss,
// never restore the wrong state.
//
// An entry is one header and the payload, checked once: the header
// echoes the fingerprint, interval and payload length it was saved
// under, and the payload is an Encoder.Finish blob whose own CRC-32C is
// the entry's only checksum. Any failure degrades to a miss; nothing here
// panics on adversarial bytes.

const (
	// latticeEntryMagic opens every lattice entry file.
	latticeEntryMagic = "ACRDLATB"

	// LatticeSchema is the entry format version. Bump it when the entry
	// encoding changes; it participates in validation (and the caller's
	// fingerprint should include its own schema marker, so keys move too).
	//
	// Schema 2: an entry is the header and the payload alone. Schema 1
	// files opened with a store magic, echoed the boundary's instruction
	// offset and closed with a CRC over the whole entry.
	LatticeSchema = 2
)

// Lattice is one fingerprint's checkpoint family in a directory: each
// entry is the file <dir>/<LatticeEntryKey>.ckpt. Its fields never
// change, so it is safe for concurrent use. Saves are atomic (temp file
// + rename), so a directory shared by concurrent writers — the
// experiment session at any Parallelism, or parallel CI jobs on a shared
// cache — never exposes a torn file; the last writer wins, and with
// content-addressed keys every writer writes identical bytes.
type Lattice struct {
	dir string
	fp  string
}

// OpenLattice creates dir if needed and returns the lattice of
// fingerprint's entries in it.
func OpenLattice(dir, fingerprint string) (*Lattice, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: create checkpoint directory: %w", err)
	}
	return &Lattice{dir: dir, fp: fingerprint}, nil
}

// LatticeEntryKey digests (fingerprint, interval) into the file name,
// less its .ckpt extension, of one boundary entry.
func LatticeEntryKey(fingerprint string, interval int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|interval=%d", fingerprint, interval)))
	return hex.EncodeToString(sum[:])
}

func (l *Lattice) path(interval int) string {
	return filepath.Join(l.dir, LatticeEntryKey(l.fp, interval)+".ckpt")
}

// SaveEntry atomically writes one boundary payload: the header, then the
// payload itself, so the payload is neither copied nor checksummed
// again. Concurrent saves of one entry are safe: each writes a unique
// temp file and renames it over the destination.
func (l *Lattice) SaveEntry(interval int, payload []byte) error {
	e := NewEncoder(len(latticeEntryMagic) + 16 + len(l.fp))
	e.Raw([]byte(latticeEntryMagic))
	e.U32(LatticeSchema)
	e.String(l.fp)
	e.U32(uint32(interval))
	e.U32(uint32(len(payload)))

	tmp, err := os.CreateTemp(l.dir, "tmp-*.ckpt-partial")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err = tmp.Write(e.buf); err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), l.path(interval)); err != nil {
		return fmt.Errorf("ckpt: publish entry: %w", err)
	}
	return nil
}

// Load reads interval's entry into *buf and validates it: the header's
// magic, schema and echoed fingerprint, interval and length, then the
// payload's own CRC-32C, one pass over it. It returns the payload, CRC
// word included, as a slice of *buf, which the next Load into the same
// buffer overwrites; decode it with NewDecoderVerified. The buffer is
// reused when the file fits and replaced by a larger one when it does
// not, so a caller that keeps one buffer per in-flight entry reads each
// file without allocating or zeroing memory for it; a nil buf reads into
// a new buffer. A missing entry reports (nil, false, nil); any other
// failure is an error the caller should treat as a miss.
func (l *Lattice) Load(interval int, buf *[]byte) ([]byte, bool, error) {
	b, ok, err := readFile(l.path(interval), buf)
	if err != nil || !ok {
		return nil, false, err
	}
	d := NewDecoder(b)
	if m := d.Raw(len(latticeEntryMagic)); d.Err() == nil && string(m) != latticeEntryMagic {
		d.Failf("ckpt: bad lattice entry magic %q", m)
	}
	if v := d.U32(); d.Err() == nil && v != LatticeSchema {
		d.Failf("ckpt: lattice entry schema %d, want %d", v, LatticeSchema)
	}
	if fp := d.String(); d.Err() == nil && fp != l.fp {
		d.Failf("ckpt: lattice entry fingerprint mismatch")
	}
	if iv := d.U32(); d.Err() == nil && int(iv) != interval {
		d.Failf("ckpt: lattice entry interval %d, want %d", iv, interval)
	}
	n := d.Len(d.Remaining())
	if d.Err() == nil && n != d.Remaining() {
		d.Failf("ckpt: lattice payload length %d does not match %d remaining bytes", n, d.Remaining())
	}
	payload := d.Raw(n)
	if err := d.Err(); err != nil {
		return nil, false, err
	}
	if _, err := NewDecoderChecked(payload); err != nil {
		return nil, false, err
	}
	return payload, true, nil
}

// readFile reads the file at p into *buf (see Load) and returns it; a
// missing file reports (nil, false, nil).
func readFile(p string, buf *[]byte) ([]byte, bool, error) {
	f, err := os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: read %s: %w", p, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: read %s: %w", p, err)
	}
	if buf == nil {
		buf = new([]byte)
	}
	// A replacement keeps a sixty-fourth to spare, so a later, slightly
	// larger entry of the same kind still fits.
	size := int(fi.Size())
	if cap(*buf) < size {
		*buf = make([]byte, 0, size+size/64)
	}
	*buf = (*buf)[:size]
	if _, err := io.ReadFull(f, *buf); err != nil {
		return nil, false, fmt.Errorf("ckpt: read %s: %w", p, err)
	}
	return *buf, true, nil
}
