package dram

import (
	"testing"

	"accord/internal/cpu"
	"accord/internal/memtypes"
)

// BenchmarkDRAMAccess measures the resource-reservation timing model's
// per-access cost: mapped reads spread over banks and rows, in roughly
// non-decreasing time order, the way the simulator drives it. It must
// report 0 allocs/op — Access is the innermost call of every simulated
// probe (the busy-interval backing array is warmed before timing).
// BenchmarkReserveAppend measures the calendar ring's O(1) fast path:
// reservations at or past the end of the schedule, which is what the
// simulator's (approximately) non-decreasing issue order produces almost
// always. The alternating offset exercises both fast-path arms —
// extending the last interval in place and appending a new one (with the
// bounded ring dropping its oldest entry).
func BenchmarkReserveAppend(b *testing.B) {
	var ch channel
	at := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			at = ch.reserve(at, 10) + 10 // contiguous: extend-last arm
		} else {
			at = ch.reserve(at+5, 10) + 10 // gapped: append arm
		}
	}
}

// BenchmarkReserveBackfill measures the slow path: reservations landing
// before the end of the schedule, walking the ring backward to find
// their gap and merge-inserting. Alternating far-future appends keep a
// populated schedule with gaps for every second reservation to land in.
func BenchmarkReserveBackfill(b *testing.B) {
	var ch channel
	front := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			front = ch.reserve(front+40, 10) + 10
		} else {
			ch.reserve(front-35, 5) // lands in the gap behind the frontier
		}
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := New(HBM(), cpu.ClockGHz)
	m := d.Config().NewMapper(28) // 2 KB row / 72 B tag+data units
	units := make([]uint64, 1024)
	for i := range units {
		units[i] = uint64(i * 37)
	}
	at := int64(0)
	for i := 0; i < 256; i++ { // warm busy-interval buffers
		loc := m.Map(units[i&(len(units)-1)])
		at = d.Access(at, loc, memtypes.Read, memtypes.TagUnitSize).DataAt - 20
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := m.Map(units[i&(len(units)-1)])
		// Trail completion slightly so reservations both extend the bus
		// schedule and occasionally backfill gaps.
		at = d.Access(at, loc, memtypes.Read, memtypes.TagUnitSize).DataAt - 20
	}
}
