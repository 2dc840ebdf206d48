package vm

import (
	"testing"

	"accord/internal/memtypes"
)

// BenchmarkTranslateLine measures the per-event translation fast path:
// pages are pre-touched so every iteration exercises the radix walk (MRU
// cache plus leaf load) without frame allocation. It must report
// 0 allocs/op — translation sits on the hot path of every simulated
// memory event.
func BenchmarkTranslateLine(b *testing.B) {
	const pages = 1 << 14 // 16 K pages across 32 leaves
	sys := NewSystem(pages*2, 1)
	sp := sys.NewSpace()
	lines := make([]memtypes.LineAddr, pages)
	for i := range lines {
		// Two interleaved arenas, mimicking the workload generators'
		// disjoint component bases, so the MRU cache sees realistic churn.
		arena := uint64(i%2+1) << 36 / memtypes.LineSize
		vl := memtypes.LineAddr(arena + uint64(i)*memtypes.LinesPerPage)
		lines[i] = vl
		sp.TranslateLine(vl) // pre-touch: allocate the frame and leaf
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink memtypes.LineAddr
	for i := 0; i < b.N; i++ {
		sink = sp.TranslateLine(lines[i&(pages-1)])
	}
	_ = sink
}
