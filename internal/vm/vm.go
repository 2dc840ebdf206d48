// Package vm models the virtual memory system: per-core address spaces
// with demand-allocated page tables over a shared physical frame pool.
// The paper's methodology (Section III-A) performs virtual-to-physical
// translation before the DRAM cache, which determines how workload access
// patterns land on cache sets; random frame allocation reproduces the
// realistic set-conflict behaviour the paper's workloads exhibit.
package vm

import (
	"accord/internal/memtypes"
	"accord/internal/xrand"
)

// System is the machine-wide VM state: one frame allocator shared by all
// address spaces. It assigns each newly touched page a uniformly random
// free frame, which models a long-running OS with a fragmented free
// list. It is not safe for concurrent use.
type System struct {
	numFrames uint64
	rng       *xrand.Rand

	used      []bool
	usedCount uint64
	nextSeq   uint64

	spaces []*Space
}

// Space is one core's (or process's) page table: a demand-grown
// two-level radix structure (see radix.go) fronted by a small MRU cache
// of recently used leaves.
type Space struct {
	sys    *System
	mru    [mruWays]*ptLeaf
	dir    *ptDir
	mapped int
}

// NewSystem creates a VM system managing numFrames physical frames. seed
// makes the random allocation reproducible.
func NewSystem(numFrames uint64, seed int64) *System {
	if numFrames == 0 {
		panic("vm: zero physical frames")
	}
	return &System{
		numFrames: numFrames,
		rng:       xrand.New(seed),
		used:      make([]bool, numFrames),
	}
}

// AllocatedFrames returns the number of frames currently mapped.
func (s *System) AllocatedFrames() uint64 { return s.usedCount }

// NewSpace creates an address space backed by this system.
func (s *System) NewSpace() *Space {
	sp := &Space{sys: s, dir: newPTDir()}
	s.spaces = append(s.spaces, sp)
	return sp
}

// allocFrame picks a uniformly random free frame. When memory is
// exhausted it wraps around and reuses frames deterministically (the
// simulator's workloads are sized to avoid this; wrapping keeps long fuzz
// runs alive).
func (s *System) allocFrame() memtypes.PageNum {
	if s.usedCount >= s.numFrames {
		// Out of physical memory: fall back to round-robin reuse.
		f := memtypes.PageNum(s.nextSeq % s.numFrames)
		s.nextSeq++
		return f
	}
	for {
		f := uint64(s.rng.Int63n(int64(s.numFrames)))
		if !s.used[f] {
			s.used[f] = true
			s.usedCount++
			return memtypes.PageNum(f)
		}
	}
}

// TranslateLine translates a virtual line address to a physical line
// address, allocating a frame on first touch of the page.
func (sp *Space) TranslateLine(vl memtypes.LineAddr) memtypes.LineAddr {
	frame := sp.translatePage(vl.Page())
	return frame.Line(vl.PageOffset())
}

// Translate translates a virtual byte address, allocating on demand.
func (sp *Space) Translate(va memtypes.Addr) memtypes.Addr {
	pl := sp.TranslateLine(va.Line())
	return pl.Addr() | (va & (memtypes.LineSize - 1))
}

// MappedPages returns the number of pages this space has touched.
func (sp *Space) MappedPages() int { return sp.mapped }

// FootprintBytes returns the physical memory this space occupies.
func (sp *Space) FootprintBytes() int64 {
	return int64(sp.mapped) * memtypes.PageSize
}
