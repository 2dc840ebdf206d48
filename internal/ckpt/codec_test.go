package ckpt

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.U8(0xAB)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.I64(-42)
	e.Raw([]byte{1, 2, 3})
	e.String("hello, checkpoint")
	bits := []bool{true, false, false, true, true, true, false, true, false, true}
	e.Bools(bits)
	blob := e.Finish()

	d, err := NewDecoderChecked(blob)
	if err != nil {
		t.Fatalf("NewDecoderChecked: %v", err)
	}
	if got := d.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Raw = %v", got)
	}
	if got := d.String(); got != "hello, checkpoint" {
		t.Errorf("String = %q", got)
	}
	back := make([]bool, len(bits))
	d.Bools(back)
	for i := range bits {
		if back[i] != bits[i] {
			t.Errorf("Bools[%d] = %v, want %v", i, back[i], bits[i])
		}
	}
	if d.Err() != nil {
		t.Fatalf("decode err: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderTruncation(t *testing.T) {
	e := NewEncoder(0)
	e.U64(1)
	e.String("abc")
	blob := e.Finish()
	// Every proper prefix must fail loudly at some layer and never panic.
	for n := 0; n < len(blob); n++ {
		if _, err := NewDecoderChecked(blob[:n]); err != nil {
			continue // checksum layer caught it
		}
		d := NewDecoder(blob[:n])
		_ = d.U64()
		_ = d.String()
		if n < len(blob)-4 && d.Err() == nil {
			t.Errorf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestDecoderCorruption(t *testing.T) {
	e := NewEncoder(0)
	for i := 0; i < 32; i++ {
		e.U64(uint64(i) * 0x9E3779B97F4A7C15)
	}
	blob := e.Finish()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		c := append([]byte(nil), blob...)
		c[rng.Intn(len(c))] ^= byte(1 + rng.Intn(255))
		if _, err := NewDecoderChecked(c); err == nil {
			t.Fatalf("trial %d: single-byte corruption not detected by checksum", trial)
		}
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1})
	d.U64() // fails: truncated
	first := d.Err()
	if first == nil {
		t.Fatal("expected truncation error")
	}
	// Later reads return zero values and keep the original error.
	if d.U32() != 0 || d.U8() != 0 || d.I64() != 0 || d.String() != "" || d.Raw(5) != nil {
		t.Error("reads after error should return zero values")
	}
	if d.Err() != first {
		t.Errorf("error was replaced: %v", d.Err())
	}
}

func TestDecoderBoolStrict(t *testing.T) {
	d := NewDecoder([]byte{2})
	d.Bool()
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "invalid bool") {
		t.Errorf("want invalid-bool error, got %v", d.Err())
	}
}

func TestDecoderLenBound(t *testing.T) {
	e := NewEncoder(0)
	e.U32(1 << 30)
	d := NewDecoder(e.buf)
	if n := d.Len(1024); n != 0 || d.Err() == nil {
		t.Errorf("Len(1024) on huge count: n=%d err=%v", n, d.Err())
	}
}

func TestStringLenBound(t *testing.T) {
	e := NewEncoder(0)
	e.U32(1 << 31) // claims a 2 GiB string with no bytes behind it
	d := NewDecoder(e.buf)
	if s := d.String(); s != "" || d.Err() == nil {
		t.Errorf("oversized string length accepted: %q err=%v", s, d.Err())
	}
}

func TestCheckedTooShort(t *testing.T) {
	for n := 0; n < 4; n++ {
		if _, err := NewDecoderChecked(make([]byte, n)); err == nil {
			t.Errorf("%d-byte blob accepted", n)
		}
	}
}

// TestBoolsRoundTripWidths round-trips every width from 0 to 17, and a
// few past whole words, and checks the count Bools returns. Padding bits
// set in the last byte must be neither stored nor counted.
func TestBoolsRoundTripWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	widths := []int{63, 64, 65, 1000}
	for n := 0; n <= 17; n++ {
		widths = append(widths, n)
	}
	for _, n := range widths {
		v := make([]bool, n)
		set := 0
		for i := range v {
			v[i] = rng.Intn(2) == 1
			if v[i] {
				set++
			}
		}
		e := NewEncoder(0)
		e.Bools(v)
		if n%8 != 0 {
			e.buf[len(e.buf)-1] |= 0xFF << (n % 8) // padding bits
		}
		d := NewDecoder(e.buf)
		back := make([]bool, n)
		got := d.Bools(back)
		if d.Err() != nil {
			t.Fatalf("n=%d: %v", n, d.Err())
		}
		for i := range v {
			if back[i] != v[i] {
				t.Fatalf("n=%d: bit %d differs", n, i)
			}
		}
		if got != set {
			t.Fatalf("n=%d: Bools counted %d set, want %d", n, got, set)
		}
		if d.Remaining() != 0 {
			t.Fatalf("n=%d: %d bytes left over", n, d.Remaining())
		}
	}
	// A truncated bitmap leaves dst alone and counts nothing.
	dst := []bool{true, false, true}
	if got := NewDecoder(nil).Bools(dst); got != 0 || !dst[0] || dst[1] || !dst[2] {
		t.Fatalf("truncated Bools returned %d and left %v", got, dst)
	}
}

// TestU64sMatchesScalar pins U64s to the bytes a U64 call per element
// writes, and checks both directions round-trip at every width.
func TestU64sMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		v := make([]uint64, n)
		for i := range v {
			v[i] = rng.Uint64()
		}
		bulk, scalar := NewEncoder(0), NewEncoder(0)
		bulk.U8(0x5A) // misalign the array
		scalar.U8(0x5A)
		bulk.U64s(v)
		for _, x := range v {
			scalar.U64(x)
		}
		if !bytes.Equal(bulk.buf, scalar.buf) {
			t.Fatalf("n=%d: U64s bytes differ from per-element U64", n)
		}
		d := NewDecoder(bulk.buf)
		d.U8()
		back := make([]uint64, n)
		d.U64s(back)
		if d.Err() != nil {
			t.Fatalf("n=%d: %v", n, d.Err())
		}
		for i := range v {
			if back[i] != v[i] {
				t.Fatalf("n=%d: word %d = %#x, want %#x", n, i, back[i], v[i])
			}
		}
		if d.Remaining() != 0 {
			t.Fatalf("n=%d: %d bytes left over", n, d.Remaining())
		}
	}
}

// TestReserve checks that reserved bytes land in sequence with the other
// fields, that earlier bytes survive a regrowth, and that a full buffer
// at least doubles.
func TestReserve(t *testing.T) {
	e := NewEncoder(64)
	e.U32(0xCAFEF00D)
	b := e.Reserve(4)
	copy(b, "abcd")
	if c := cap(e.buf); c != 64 {
		t.Fatalf("Reserve within capacity reallocated: cap %d", c)
	}
	e.Raw(make([]byte, 64-e.Len()))
	e.Reserve(1)[0] = 0xEE
	if c := cap(e.buf); c < 128 {
		t.Errorf("full 64-byte buffer grew to cap %d, want at least 128", c)
	}
	big := e.Reserve(1000)
	for i := range big {
		big[i] = byte(i)
	}
	if got := e.Len(); got != 64+1+1000 {
		t.Fatalf("Len = %d after reserving", got)
	}
	if c := cap(e.buf); c < e.Len() {
		t.Fatalf("cap %d below len %d", c, e.Len())
	}
	e.U8(0x77)

	d := NewDecoder(e.buf)
	if got := d.U32(); got != 0xCAFEF00D {
		t.Errorf("U32 before Reserve = %#x", got)
	}
	if got := d.Raw(4); string(got) != "abcd" {
		t.Errorf("reserved bytes = %q", got)
	}
	d.Raw(64 - 8)
	if got := d.U8(); got != 0xEE {
		t.Errorf("byte reserved across regrowth = %#x", got)
	}
	for i, v := range d.Raw(1000) {
		if v != byte(i) {
			t.Fatalf("reserved byte %d = %d", i, v)
		}
	}
	if got := d.U8(); got != 0x77 || d.Err() != nil || d.Remaining() != 0 {
		t.Errorf("trailing U8 = %#x, err %v, %d left", got, d.Err(), d.Remaining())
	}
}

// TestBulkTruncationEveryOffset cuts a blob of bulk sections at every
// offset: each cut must surface as a decode error, never a panic or a
// silent short read.
func TestBulkTruncationEveryOffset(t *testing.T) {
	words := []uint64{1, 1 << 40, ^uint64(0), 42, 7}
	e := NewEncoder(0)
	e.U8(3)
	e.U64s(words)
	copy(e.Reserve(9), "reserved!")
	e.U64s(words[:2])
	payload := append([]byte(nil), e.buf...)
	for n := 0; n < len(payload); n++ {
		d := NewDecoder(payload[:n])
		d.U8()
		d.U64s(make([]uint64, len(words)))
		d.Raw(9)
		d.U64s(make([]uint64, 2))
		if d.Err() == nil {
			t.Errorf("truncation to %d of %d bytes went undetected", n, len(payload))
		}
	}
	d := NewDecoder(payload)
	d.U8()
	d.U64s(make([]uint64, len(words)))
	d.Raw(9)
	d.U64s(make([]uint64, 2))
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("full payload: err %v, %d bytes left", d.Err(), d.Remaining())
	}
}

// TestMeasurerCountsExactLength runs one sequence of every field kind
// through a real encoder and a measurer: the measurer must store nothing
// and count exactly the bytes of the finished blob.
func TestMeasurerCountsExactLength(t *testing.T) {
	write := func(e *Encoder) []byte {
		e.U8(1)
		e.Bool(true)
		e.U32(2)
		e.U64(3)
		e.I64(-4)
		e.Raw([]byte("raw"))
		e.String("string")
		e.Bools(make([]bool, 13))
		e.U64s([]uint64{5, 6, 7})
		if b := e.Reserve(9); b != nil {
			copy(b, "reserved!")
		}
		return e.Finish()
	}
	blob := write(NewEncoder(0))
	m := NewMeasurer()
	if !m.Measuring() || NewEncoder(0).Measuring() {
		t.Error("Measuring must be true exactly for a measurer")
	}
	if b := m.Reserve(0); b != nil {
		t.Errorf("measurer Reserve returned a %d-byte slice, want nil", len(b))
	}
	if got := write(m); got != nil {
		t.Errorf("measurer Finish returned %d bytes, want nil", len(got))
	}
	if m.Len() != len(blob) {
		t.Errorf("measurer counted %d bytes, blob is %d", m.Len(), len(blob))
	}
	if _, err := NewDecoderChecked(blob); err != nil {
		t.Fatal(err)
	}
}
