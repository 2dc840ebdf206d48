package vm

import (
	"testing"
	"testing/quick"

	"accord/internal/memtypes"
)

func TestNewSystemPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero frames")
		}
	}()
	NewSystem(0, 1)
}

func TestTranslationStable(t *testing.T) {
	sys := NewSystem(1024, 7)
	sp := sys.NewSpace()
	va := memtypes.Addr(0x12345)
	p1 := sp.Translate(va)
	p2 := sp.Translate(va)
	if p1 != p2 {
		t.Errorf("translation unstable: %#x vs %#x", p1, p2)
	}
	// Line offset within page preserved.
	if p1&(memtypes.PageSize-1) != va&(memtypes.PageSize-1) {
		t.Errorf("page offset not preserved: va %#x -> pa %#x", va, p1)
	}
}

func TestDistinctPagesDistinctFrames(t *testing.T) {
	sys := NewSystem(4096, 3)
	sp := sys.NewSpace()
	frames := map[memtypes.PageNum]memtypes.PageNum{}
	for p := uint64(0); p < 1000; p++ {
		pl := sp.TranslateLine(memtypes.PageNum(p).Line(0))
		f := pl.Page()
		if prev, ok := frames[f]; ok {
			t.Fatalf("frame %d assigned to pages %d and %d", f, prev, p)
		}
		frames[f] = memtypes.PageNum(p)
	}
	if sys.AllocatedFrames() != 1000 {
		t.Errorf("allocated = %d, want 1000", sys.AllocatedFrames())
	}
}

func TestSpacesAreIsolated(t *testing.T) {
	sys := NewSystem(4096, 9)
	a, b := sys.NewSpace(), sys.NewSpace()
	va := memtypes.Addr(0x5000)
	if a.Translate(va) == b.Translate(va) {
		t.Error("two spaces mapped the same VA to the same frame")
	}
}

func TestExhaustionWrapsInsteadOfPanicking(t *testing.T) {
	sys := NewSystem(4, 0)
	sp := sys.NewSpace()
	for p := uint64(0); p < 16; p++ {
		sp.TranslateLine(memtypes.PageNum(p).Line(0))
	}
	if sys.AllocatedFrames() != 4 {
		t.Errorf("allocated = %d, want 4 (all)", sys.AllocatedFrames())
	}
	if sp.MappedPages() != 16 {
		t.Errorf("mapped pages = %d, want 16", sp.MappedPages())
	}
}

func TestFootprint(t *testing.T) {
	sys := NewSystem(1024, 1)
	sp := sys.NewSpace()
	for p := uint64(0); p < 10; p++ {
		sp.TranslateLine(memtypes.PageNum(p).Line(3))
	}
	if sp.FootprintBytes() != 10*memtypes.PageSize {
		t.Errorf("footprint = %d", sp.FootprintBytes())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	build := func() []memtypes.LineAddr {
		sys := NewSystem(2048, 42)
		sp := sys.NewSpace()
		var out []memtypes.LineAddr
		for p := uint64(0); p < 100; p++ {
			out = append(out, sp.TranslateLine(memtypes.PageNum(p).Line(0)))
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at page %d: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestQuickOffsetPreserved(t *testing.T) {
	sys := NewSystem(1<<16, 5)
	sp := sys.NewSpace()
	f := func(raw uint32) bool {
		vl := memtypes.LineAddr(raw)
		pl := sp.TranslateLine(vl)
		return pl.PageOffset() == vl.PageOffset()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInjectiveWithinSpace(t *testing.T) {
	sys := NewSystem(1<<16, 6)
	sp := sys.NewSpace()
	seen := map[memtypes.LineAddr]memtypes.LineAddr{}
	f := func(raw uint16) bool {
		vl := memtypes.LineAddr(raw)
		pl := sp.TranslateLine(vl)
		if prev, ok := seen[pl]; ok && prev != vl {
			return false
		}
		seen[pl] = vl
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
