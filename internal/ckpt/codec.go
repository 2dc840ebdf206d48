// Package ckpt provides the warm-state checkpoint substrate: a compact
// binary codec every stateful component serializes itself through, and
// the checkpoint lattice, content-addressed entry files in a directory
// keyed by configuration digests.
//
// The codec is deliberately dumb — fixed-width little-endian fields, no
// reflection, no per-field tags — because the checkpoint contract is
// bit-identity, not schema evolution: a snapshot is only ever restored
// into a system constructed from the exact same configuration (enforced
// by the key digest and an embedded fingerprint), so both sides always
// agree on the field sequence. Versioning happens at whole-component
// granularity: each component writes a version byte and refuses to
// restore any other version, and the sim-level schema constant
// invalidates every stored checkpoint when any encoding changes.
//
// The Decoder is sticky-error and bounds-checked: feeding it truncated,
// corrupted, or adversarial bytes produces a descriptive error, never a
// panic or an allocation proportional to attacker-controlled lengths.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// Encoder appends fixed-width binary fields to a growing buffer. The
// zero value is not usable; construct with NewEncoder, or with
// NewMeasurer for an encoder that only counts.
type Encoder struct {
	buf []byte
	// measure marks a NewMeasurer encoder: it stores nothing, and n counts
	// the bytes it would have encoded.
	measure bool
	n       int
}

// NewEncoder returns an encoder with the given capacity hint.
func NewEncoder(capHint int) *Encoder {
	if capHint < 64 {
		capHint = 64
	}
	return &Encoder{buf: make([]byte, 0, capHint)}
}

// NewMeasurer returns an encoder that stores nothing and only counts:
// after the calls that would encode a blob, Finish included, Len is that
// blob's exact length, so the real encoder can be sized to hold it in
// one allocation. On a measurer Reserve and Finish return nil; a caller
// filling a reserved section skips it.
func NewMeasurer() *Encoder { return &Encoder{measure: true} }

// Measuring reports whether e is a measurer. A component whose encoding
// has the same length in every state may then skip work that only
// decides the bytes, such as replaying a stream to an earlier position.
func (e *Encoder) Measuring() bool { return e.measure }

// counted adds n to a measurer's count and reports whether e is one, in
// which case the caller encodes nothing.
func (e *Encoder) counted(n int) bool {
	if e.measure {
		e.n += n
	}
	return e.measure
}

// Len returns the number of bytes encoded (counted, on a measurer) so far.
func (e *Encoder) Len() int {
	if e.measure {
		return e.n
	}
	return len(e.buf)
}

// Reserve extends the blob by n bytes and returns them for the caller to
// fill in place; their prior contents are unspecified, so every byte must
// be written. An array-sized section costs one capacity check this way
// instead of one per field. When the buffer runs out it at least doubles,
// so a blob that outgrows its capacity hint is copied O(log n) times
// rather than once per 25% of growth, as append does for large slices.
// A measurer counts the n bytes and returns nil.
func (e *Encoder) Reserve(n int) []byte {
	if e.counted(n) {
		return nil
	}
	l := len(e.buf)
	if cap(e.buf)-l < n {
		grown := make([]byte, l, max(2*cap(e.buf), l+n))
		copy(grown, e.buf)
		e.buf = grown
	}
	e.buf = e.buf[:l+n]
	return e.buf[l:]
}

// U64s appends v as consecutive little-endian words, exactly as a U64
// call per element would, with no length prefix; the decoder must know
// the count.
func (e *Encoder) U64s(v []uint64) {
	b := e.Reserve(8 * len(v))
	if b == nil {
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) {
	if e.counted(1) {
		return
	}
	e.buf = append(e.buf, v)
}

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if e.counted(1) {
		return
	}
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	if e.counted(4) {
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	if e.counted(8) {
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64 (two's complement, little-endian).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Raw appends bytes verbatim, with no length prefix; the decoder must
// know the exact count.
func (e *Encoder) Raw(b []byte) {
	if e.counted(len(b)) {
		return
	}
	e.buf = append(e.buf, b...)
}

// String appends a uint32 length prefix followed by the bytes.
func (e *Encoder) String(s string) {
	if e.counted(4 + len(s)) {
		return
	}
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bools appends a bit-packed bool slice (no length prefix; the decoder
// must know the count). Large boolean state (the VM frame bitmap) costs
// one bit per entry instead of one byte.
func (e *Encoder) Bools(v []bool) {
	if e.counted((len(v) + 7) / 8) {
		return
	}
	var acc uint8
	var n uint
	for _, b := range v {
		if b {
			acc |= 1 << n
		}
		if n++; n == 8 {
			e.buf = append(e.buf, acc)
			acc, n = 0, 0
		}
	}
	if n > 0 {
		e.buf = append(e.buf, acc)
	}
}

// Finish appends a CRC-32C of everything encoded so far and returns the
// complete blob (nil from a measurer, which counts the CRC). The encoder
// must not be used afterwards.
func (e *Encoder) Finish() []byte {
	crc := crc32.Checksum(e.buf, crcTable)
	if b := e.Reserve(4); b != nil {
		binary.LittleEndian.PutUint32(b, crc)
	}
	return e.buf
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decoder reads fields written by an Encoder. Errors are sticky: after
// the first failure every read returns a zero value and Err reports the
// original cause, so component Restore methods can decode a whole block
// and check once. It never panics on malformed input.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps raw bytes (no checksum verification).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// NewDecoderChecked verifies and strips the trailing CRC-32C appended by
// Encoder.Finish, returning a decoder over the payload.
func NewDecoderChecked(b []byte) (*Decoder, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("ckpt: blob of %d bytes is too short for a checksum", len(b))
	}
	payload, tail := b[:len(b)-4], b[len(b)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch (%#08x != %#08x): corrupt or truncated blob", got, want)
	}
	return &Decoder{buf: payload}, nil
}

// NewDecoderVerified returns a decoder over the payload of an
// Encoder.Finish blob whose checksum has already been verified, such as
// a payload Lattice.Load returned: it strips the CRC-32C without
// recomputing it. A blob too short to hold one decodes as an error.
func NewDecoderVerified(b []byte) *Decoder {
	if len(b) < 4 {
		return &Decoder{err: fmt.Errorf("ckpt: blob of %d bytes is too short for a checksum", len(b))}
	}
	return &Decoder{buf: b[:len(b)-4]}
}

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Failf records an error if none is set; later reads return zero values.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.buf) - d.off
}

// need consumes n bytes, or sets the sticky error.
func (d *Decoder) need(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf)-d.off < n {
		d.Failf("ckpt: truncated input: need %d bytes at offset %d, have %d", n, d.off, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.need(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte and requires it to be exactly 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("ckpt: invalid bool byte %#x at offset %d", v, d.off-1)
		return false
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.need(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Raw consumes exactly n bytes; the returned slice aliases the input.
func (d *Decoder) Raw(n int) []byte { return d.need(n) }

// String reads a length-prefixed string, bounded by the remaining input
// so a corrupt length can never drive a huge allocation.
func (d *Decoder) String() string {
	n := int(d.U32())
	if d.err != nil {
		return ""
	}
	if n > len(d.buf)-d.off {
		d.Failf("ckpt: string length %d exceeds %d remaining bytes", n, len(d.buf)-d.off)
		return ""
	}
	return string(d.need(n))
}

// Len reads a uint32 count and requires it to be at most max, guarding
// every slice restore against corrupt or adversarial sizes.
func (d *Decoder) Len(max int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int64(n) > int64(max) {
		d.Failf("ckpt: count %d exceeds maximum %d", n, max)
		return 0
	}
	return int(n)
}

// U64s reads len(dst) little-endian words into dst with a single bounds
// check for the whole array. On error dst is left unchanged.
func (d *Decoder) U64s(dst []uint64) {
	b := d.need(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// Bools reads len(dst) bit-packed bools into dst, a byte at a time, and
// returns how many of them are true. Padding bits past len(dst) in the
// last byte are neither stored nor counted. On error dst is left
// unchanged and the count is 0.
func (d *Decoder) Bools(dst []bool) int {
	b := d.need((len(dst) + 7) / 8)
	if b == nil {
		return 0
	}
	full := len(dst) / 8
	n := 0
	for i, x := range b[:full] {
		*(*[8]bool)(dst[8*i:]) = unpacked[x]
		n += bits.OnesCount8(x)
	}
	if rest := len(dst) - 8*full; rest > 0 {
		x := b[full] & (1<<rest - 1)
		copy(dst[8*full:], unpacked[x][:rest])
		n += bits.OnesCount8(x)
	}
	return n
}

// unpacked[x] is byte x's eight bits as bools, lowest bit first.
var unpacked = func() (t [256][8]bool) {
	for x := range t {
		for j := range t[x] {
			t[x][j] = x&(1<<j) != 0
		}
	}
	return t
}()
