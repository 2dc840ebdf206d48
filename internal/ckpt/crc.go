package ckpt

import "hash/crc32"

// crc32Combine returns the CRC-32C of the concatenation A‖B given
// crcA = CRC-32C(A), crcB = CRC-32C(B) and lenB = len(B), without
// reading either. CRC-32C is linear over GF(2): appending lenB bytes to A
// multiplies crcA's register by x^(8·lenB) modulo the polynomial, which
// takes a multiplication per set bit of lenB (zlib's crc32_combine).
// Lattice.Load uses it to check an entry's checksum from the checksum of
// its payload body, so one CRC pass covers both frames.
func crc32Combine(crcA, crcB uint32, lenB int) uint32 {
	return multModP(xPow8n(lenB), crcA) ^ crcB
}

// The polynomials below are in the CRC register's reflected bit order:
// bit 31 is the coefficient of x^0, bit 0 that of x^31.

// multModP returns a·b modulo the CRC-32C polynomial. a must not be
// zero.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
}

// x2n[k] is x^(2^k) modulo the polynomial; 64 powers cover every length
// below 2^61 bytes.
var x2n = func() (t [64]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// xPow8n returns x^(8n) modulo the polynomial, the operator that
// appends n zero bytes to a register: the product of x^(2^k) over the
// set bits k of 8n.
func xPow8n(n int) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2n[k], p)
		}
	}
	return p
}
