package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
)

// Spine checkpoint lattice: a family of content-addressed entries in a
// Store, one per saved interval boundary of a sampled run. An exact
// run's warm state is a one-entry lattice, boundary 0. The lattice is
// keyed by a caller-supplied fingerprint covering everything that
// determines boundary state (configuration, workload, interval
// geometry); each entry additionally keys on its interval number and
// absolute instruction offset, so a geometry change moves every key and
// a stale lattice can only miss, never restore the wrong state.
//
// Each entry checks itself: it is CRC-framed (Encoder.Finish) and echoes
// the fingerprint, interval, offset and payload length it was saved
// under, and its payload is itself CRC-framed. Any failure degrades to
// a miss; nothing here panics on adversarial bytes.

const (
	// latticeEntryMagic opens every lattice entry blob.
	latticeEntryMagic = "ACRDLATB"

	// LatticeSchema is the lattice framing version. Bump it when the entry
	// encoding changes; it participates in validation (and the caller's
	// fingerprint should include its own schema marker, so keys move too).
	LatticeSchema = 1
)

// Lattice is a view of one fingerprint's checkpoint family inside a
// Store. It holds no state of its own, so it is safe for concurrent use;
// concurrent writers of one entry are last-writer-wins on identical
// content (entries are content-addressed and deterministic).
type Lattice struct {
	store *Store
	fp    string
}

// NewLattice returns a lattice over store for the given fingerprint.
func NewLattice(store *Store, fingerprint string) *Lattice {
	return &Lattice{store: store, fp: fingerprint}
}

// LatticeEntryKey digests (fingerprint, interval, offset) into the store
// key of one boundary entry.
func LatticeEntryKey(fingerprint string, interval int, offset int64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|interval=%d|offset=%d", fingerprint, interval, offset)))
	return hex.EncodeToString(sum[:])
}

// SaveEntry persists one boundary payload in one store write.
func (l *Lattice) SaveEntry(interval int, offset int64, payload []byte) error {
	// The header is the fingerprint plus 36 bytes of fixed fields and CRC.
	e := NewEncoder(len(payload) + len(l.fp) + 64)
	e.Raw([]byte(latticeEntryMagic))
	e.U32(LatticeSchema)
	e.String(l.fp)
	e.U32(uint32(interval))
	e.I64(offset)
	e.U32(uint32(len(payload)))
	e.Raw(payload)
	return l.store.Save(LatticeEntryKey(l.fp, interval, offset), e.Finish())
}

// Load reads the entry for (interval, offset) into *buf (see
// Store.Load) and validates it. A payload is an Encoder.Finish blob, as
// every snapshot is, so Load checks two frames: the entry's (its CRC,
// magic, schema and echoed fingerprint, interval, offset and length) and
// the payload's own CRC. Both checksums cover the payload body, and one
// pass over it yields both (crc32Combine). The payload it returns keeps
// its CRC word; decode it with NewDecoderVerified. A missing entry
// reports (nil, false, nil); any validation failure is an error the
// caller should treat as a miss.
func (l *Lattice) Load(interval int, offset int64, buf *[]byte) ([]byte, bool, error) {
	blob, ok, err := l.store.Load(LatticeEntryKey(l.fp, interval, offset), buf)
	if err != nil || !ok {
		return nil, false, err
	}
	if len(blob) < 4 {
		return nil, false, fmt.Errorf("ckpt: blob of %d bytes is too short for a checksum", len(blob))
	}
	framed, want := blob[:len(blob)-4], binary.LittleEndian.Uint32(blob[len(blob)-4:])
	// An entry of this fingerprint has a header of a known length; split
	// there, and before the payload's own CRC word. The combined checksum
	// is the entry's whatever the split, so a foreign or damaged header
	// fails the echo checks below, not this one.
	hdr := min(len(latticeEntryMagic)+4+4+len(l.fp)+4+8+4, len(framed))
	end := max(hdr, len(framed)-4)
	bodyCRC := crc32.Checksum(framed[hdr:end], crcTable)
	got := crc32Combine(crc32.Checksum(framed[:hdr], crcTable), bodyCRC, end-hdr)
	got = crc32Combine(got, crc32.Checksum(framed[end:], crcTable), len(framed)-end)
	if got != want {
		return nil, false, fmt.Errorf("ckpt: checksum mismatch (%#08x != %#08x): corrupt or truncated blob", got, want)
	}
	d := NewDecoder(framed)
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
	if off := d.I64(); d.Err() == nil && off != offset {
		d.Failf("ckpt: lattice entry offset %d, want %d", off, offset)
	}
	n := d.Len(d.Remaining())
	if d.Err() == nil && n != d.Remaining() {
		d.Failf("ckpt: lattice payload length %d does not match %d remaining bytes", n, d.Remaining())
	}
	payload := d.Raw(n)
	if err := d.Err(); err != nil {
		return nil, false, err
	}
	// The header checks passed, so the split above fell exactly between
	// the header and the payload, and bodyCRC is the payload body's.
	if n < 4 {
		return nil, false, fmt.Errorf("ckpt: lattice payload of %d bytes is too short for a checksum", n)
	}
	if inner := binary.LittleEndian.Uint32(payload[n-4:]); bodyCRC != inner {
		return nil, false, fmt.Errorf("ckpt: payload checksum mismatch (%#08x != %#08x): corrupt blob", bodyCRC, inner)
	}
	return payload, true, nil
}
