package ckpt

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestCRC32Combine is crc32Combine's defining property:
// combine(crc(A), crc(B), len(B)) == crc(A‖B) for random A and B of
// random lengths, either or both empty included, and for lengths that
// cross the powers of two its squaring loop steps through.
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	data := make([]byte, 1<<21)
	rng.Read(data)
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crcTable) }
	lens := []int{0, 1, 2, 3, 4, 7, 8, 9, 255, 256, 257, 4096, 1<<16 + 3, 1<<20 + 5}
	for i := 0; i < 200; i++ {
		lens = append(lens, rng.Intn(1<<16))
	}
	for _, la := range []int{0, 1, 5, 64, 1000} {
		for _, lb := range lens {
			a, b := data[:la], data[la:la+lb]
			if got, want := crc32Combine(crc(a), crc(b), lb), crc(data[:la+lb]); got != want {
				t.Fatalf("len(A)=%d len(B)=%d: combine gave %#08x, crc(A‖B) is %#08x", la, lb, got, want)
			}
		}
	}
}
