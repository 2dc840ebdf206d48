package xrand

import (
	"encoding/binary"

	"accord/internal/ckpt"
)

// rngVersion tags the Rand encoding; bump on any layout change.
const rngVersion = 1

// Snapshot serializes the generator's complete state: the two cursors
// and the 607-word lagged-Fibonacci vector. A restored generator emits
// the exact continuation of the snapshotted stream.
func (r *Rand) Snapshot(e *ckpt.Encoder) {
	e.U8(rngVersion)
	e.U32(uint32(r.tap))
	e.U32(uint32(r.feed))
	b := e.Reserve(8 * rngLen)
	if b == nil {
		return
	}
	for i := range r.vec {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(r.vec[i]))
	}
}

// Restore replaces the generator's state with a snapshot.
func (r *Rand) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != rngVersion {
		d.Failf("xrand: snapshot version %d, want %d", v, rngVersion)
	}
	tap, feed := d.U32(), d.U32()
	if d.Err() == nil && (tap >= rngLen || feed >= rngLen) {
		d.Failf("xrand: cursor out of range (tap=%d feed=%d)", tap, feed)
	}
	b := d.Raw(8 * rngLen)
	if err := d.Err(); err != nil {
		return err
	}
	r.tap, r.feed = int32(tap), int32(feed)
	for i := range r.vec {
		r.vec[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}
