package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// Spine checkpoint lattice: a family of content-addressed entries in a
// Store, one per interval boundary of a sampled run, plus a small index
// blob chaining them together. An exact run's warm state is a one-entry
// lattice, boundary 0 saved with SaveEntry and never indexed. The
// lattice is keyed by a caller-supplied fingerprint covering everything
// that determines boundary state (configuration, workload, interval
// geometry); each entry additionally keys on its interval number and
// absolute instruction offset, so a geometry change moves every key and
// a stale lattice can only miss, never restore the wrong state.
//
// Integrity is layered: every entry and the index are CRC-framed
// (Encoder.Finish), every entry echoes the fingerprint/interval/offset
// it was saved under, and the index records each entry's payload length
// and SHA-256 digest — the chain Probe verifies when the index is
// available. Any failure anywhere degrades to a miss; nothing here
// panics on adversarial bytes.

const (
	// latticeEntryMagic opens every lattice entry blob; latticeIndexMagic
	// opens the per-lattice index blob.
	latticeEntryMagic = "ACRDLATB"
	latticeIndexMagic = "ACRDLATI"

	// LatticeSchema is the lattice framing version. Bump it when the entry
	// or index encoding changes; it participates in validation (and the
	// caller's fingerprint should include its own schema marker, so keys
	// move too).
	LatticeSchema = 1

	// maxLatticeIndexEntries bounds index decoding against corrupt counts.
	maxLatticeIndexEntries = 1 << 20
	// latticeIndexRecordBytes is one index record's encoded size: interval
	// u32, offset i64, length u64 and the SHA-256 digest.
	latticeIndexRecordBytes = 4 + 8 + 8 + sha256.Size
)

// latticeIndexEntry is one chained record: which entry exists and what
// its payload must hash to.
type latticeIndexEntry struct {
	Interval int
	Offset   int64
	Length   int
	Digest   [sha256.Size]byte
}

// Lattice is a view of one fingerprint's checkpoint family inside a
// Store. Safe for concurrent use; the index is read-modify-written under
// a lock in-process, and cross-process writers are last-writer-wins on
// identical content (entries are content-addressed and deterministic).
type Lattice struct {
	store *Store
	fp    string

	mu    sync.Mutex
	index map[int]latticeIndexEntry // nil until first use
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

// latticeIndexKey digests the fingerprint into the index blob's key.
func latticeIndexKey(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint + "|lattice-index"))
	return hex.EncodeToString(sum[:])
}

// SaveEntry persists one boundary payload and merges it into the
// in-memory index without rewriting the index blob, so a writer saving
// many boundaries in one run pays one store write each. Entries saved
// this way are immediately probeable (entry validation does not need the
// index); call FlushIndex once after the batch to persist the digest
// chain. A failed entry write is returned without touching the index. A
// crash before the flush, or a failed flush, loses only the chain, never
// the entries (Probe falls back to direct entry validation when the
// index is absent or stale).
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
	if err := l.store.Save(LatticeEntryKey(l.fp, interval, offset), e.Finish()); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.loadIndexLocked()
	l.index[interval] = latticeIndexEntry{
		Interval: interval,
		Offset:   offset,
		Length:   len(payload),
		Digest:   sha256.Sum256(payload),
	}
	return nil
}

// FlushIndex writes the current in-memory index blob, persisting the
// digest chain for entries saved with SaveEntry.
func (l *Lattice) FlushIndex() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.loadIndexLocked()
	return l.saveIndexLocked()
}

// Load fetches and validates the entry for (interval, offset): CRC frame,
// magic, schema, fingerprint, and the echoed interval/offset/length. A
// missing entry reports (nil, false, nil); any validation failure is an
// error the caller should treat as a miss.
func (l *Lattice) Load(interval int, offset int64) ([]byte, bool, error) {
	blob, ok, err := l.store.Load(LatticeEntryKey(l.fp, interval, offset))
	if err != nil || !ok {
		return nil, false, err
	}
	d, err := NewDecoderChecked(blob)
	if err != nil {
		return nil, false, err
	}
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
	return payload, true, nil
}

// Probe is the forgiving lookup the sampler uses: the entry is loaded
// and validated, and when the index knows this interval the payload is
// additionally checked against the chained length and digest. Every
// failure mode — missing entry, truncation, CRC damage, index
// disagreement — reports a plain miss.
func (l *Lattice) Probe(interval int, offset int64) ([]byte, bool) {
	payload, ok, err := l.Load(interval, offset)
	if err != nil || !ok {
		return nil, false
	}
	l.mu.Lock()
	l.loadIndexLocked()
	ie, known := l.index[interval]
	l.mu.Unlock()
	if known {
		if ie.Offset != offset || ie.Length != len(payload) || sha256.Sum256(payload) != ie.Digest {
			return nil, false
		}
	}
	return payload, true
}

// Intervals returns the sorted interval numbers the index records.
func (l *Lattice) Intervals() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.loadIndexLocked()
	out := make([]int, 0, len(l.index))
	for k := range l.index {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// loadIndexLocked populates l.index from the store on first use. An
// absent, corrupt, or mismatched index yields an empty map: entries stay
// reachable through their own validation, just without the digest chain.
func (l *Lattice) loadIndexLocked() {
	if l.index != nil {
		return
	}
	l.index = make(map[int]latticeIndexEntry)
	blob, ok, err := l.store.Load(latticeIndexKey(l.fp))
	if err != nil || !ok {
		return
	}
	d, err := NewDecoderChecked(blob)
	if err != nil {
		return
	}
	if string(d.Raw(len(latticeIndexMagic))) != latticeIndexMagic {
		return
	}
	if d.U32() != LatticeSchema {
		return
	}
	if d.String() != l.fp {
		return
	}
	// A count the remaining bytes cannot hold is corrupt; rejecting it
	// here keeps a damaged index from sizing a map for a million records.
	n := d.Len(min(maxLatticeIndexEntries, d.Remaining()/latticeIndexRecordBytes))
	entries := make(map[int]latticeIndexEntry, n)
	for i := 0; i < n; i++ {
		var ie latticeIndexEntry
		ie.Interval = int(d.U32())
		ie.Offset = d.I64()
		ie.Length = int(d.U64())
		copy(ie.Digest[:], d.Raw(sha256.Size))
		entries[ie.Interval] = ie
	}
	if d.Err() != nil || d.Remaining() != 0 {
		return
	}
	l.index = entries
}

// saveIndexLocked writes the index sorted by interval, so identical
// lattices serialize to identical bytes.
func (l *Lattice) saveIndexLocked() error {
	keys := make([]int, 0, len(l.index))
	for k := range l.index {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e := NewEncoder(64 + len(keys)*latticeIndexRecordBytes)
	e.Raw([]byte(latticeIndexMagic))
	e.U32(LatticeSchema)
	e.String(l.fp)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		ie := l.index[k]
		e.U32(uint32(ie.Interval))
		e.I64(ie.Offset)
		e.U64(uint64(ie.Length))
		e.Raw(ie.Digest[:])
	}
	return l.store.Save(latticeIndexKey(l.fp), e.Finish())
}
