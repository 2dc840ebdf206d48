package vm

import (
	"math/rand"
	"testing"

	"accord/internal/memtypes"
)

// TestRadixMatchesMapReference drives the radix page table and the
// original map-based page table (surviving here as the reference model)
// with the same randomized trace and demands identical translations,
// allocation order, and footprint accounting. Frame allocation flows
// through the shared System RNG, so any divergence in first-touch order
// between the two structures would surface as mismatched frames.
func TestRadixMatchesMapReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		sys := NewSystem(1<<16, seed)
		sp := sys.NewSpace()
		ref := make(map[memtypes.PageNum]memtypes.PageNum)
		r := rand.New(rand.NewSource(seed * 7))

		// Arena bases mirror the workload generators: sparse high bits,
		// dense page runs beneath them — the layout the radix directory
		// plus dense leaves is shaped for.
		bases := []uint64{1 << 36 / memtypes.LineSize, 2 << 36 / memtypes.LineSize, 3 << 36 / memtypes.LineSize}

		for op := 0; op < 200_000; op++ {
			base := bases[r.Intn(len(bases))]
			var off uint64
			if r.Intn(4) == 0 {
				off = uint64(r.Intn(1 << 20)) // wide: new leaves
			} else {
				off = uint64(r.Intn(1 << 12)) // narrow: MRU-cached leaves
			}
			vl := memtypes.LineAddr(base + off*memtypes.LinesPerPage + uint64(r.Intn(memtypes.LinesPerPage)))

			got := sp.TranslateLine(vl)
			frame := got.Page()
			if want, seen := ref[vl.Page()]; seen {
				if frame != want {
					t.Fatalf("seed %d op %d: page %#x translated to frame %#x, previously %#x",
						seed, op, uint64(vl.Page()), uint64(frame), uint64(want))
				}
			} else {
				ref[vl.Page()] = frame
			}
			if got.PageOffset() != vl.PageOffset() {
				t.Fatalf("seed %d op %d: line offset not preserved", seed, op)
			}
		}
		if sp.MappedPages() != len(ref) {
			t.Fatalf("seed %d: MappedPages = %d, reference holds %d", seed, sp.MappedPages(), len(ref))
		}
		// Injectivity: two virtual pages never share a frame within a space.
		inv := make(map[memtypes.PageNum]memtypes.PageNum, len(ref))
		for vp, f := range ref {
			if prev, dup := inv[f]; dup {
				t.Fatalf("seed %d: frame %#x mapped by pages %#x and %#x", seed, uint64(f), uint64(prev), uint64(vp))
			}
			inv[f] = vp
		}
	}
}

// TestRadixAllocationOrderMatchesMap verifies the bit-identity argument
// directly: a radix-backed space and a pure-map simulation of the old
// implementation, fed the same access sequence against systems seeded
// identically, draw the same frames in the same order.
func TestRadixAllocationOrderMatchesMap(t *testing.T) {
	const seed = 9
	sysA := NewSystem(1<<12, seed)
	spA := sysA.NewSpace()

	// The reference reimplements the old map-based Space inline: one map,
	// one allocFrame call per first touch, in access order.
	sysB := NewSystem(1<<12, seed)
	refTable := make(map[memtypes.PageNum]memtypes.PageNum)
	refTranslate := func(vp memtypes.PageNum) memtypes.PageNum {
		if f, ok := refTable[vp]; ok {
			return f
		}
		f := sysB.allocFrame()
		refTable[vp] = f
		return f
	}

	r := rand.New(rand.NewSource(seed))
	for op := 0; op < 100_000; op++ {
		vp := memtypes.PageNum(uint64(r.Intn(1<<14)) + uint64(r.Intn(3)+1)<<24)
		got := spA.translatePage(vp)
		want := refTranslate(vp)
		if got != want {
			t.Fatalf("op %d: page %#x -> frame %#x, map reference -> %#x",
				op, uint64(vp), uint64(got), uint64(want))
		}
	}
	if sysA.AllocatedFrames() != sysB.AllocatedFrames() {
		t.Fatalf("allocated frames diverged: %d vs %d", sysA.AllocatedFrames(), sysB.AllocatedFrames())
	}
}
