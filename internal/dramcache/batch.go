package dramcache

import "accord/internal/memtypes"

// This file implements Interface.FunctionalBatch, once for every bundled
// organization. The sampling spine (sim.advanceFunctional via
// cpu.StepFunctionalBatch) hands whole trace-cache windows here; dctest
// proves batch-vs-single-step snapshot-byte equivalence for all
// registered backends.
//
// The organizations on the packed tag store (nway, Gemini, TDRAM) walk
// their windows in groups of touchGroup events, loading every set of a
// group (tagStore.touch) before running its ops. At gigascale the tag
// store is far larger than the host's caches, so nearly every op waits on
// a host memory miss for its set; issued back to back, a group's misses
// are in flight together instead of one after another (DESIGN.md §12.3).

// FunctionalWrite is the flags bit selecting WritebackFunctional; it
// matches workloads.FlagWrite so trace-cache flag bytes pass through
// without re-encoding.
const FunctionalWrite uint8 = 1 << 0

// touchGroup is how many events' tag sets FunctionalBatch loads ahead of
// running them. Groups of 4 and 8 measured slower; 16 to 64 performed
// about the same (DESIGN.md §12.4).
const touchGroup = 16

// functionalBatch runs a window of functional ops on c in order, touching
// each group's sets first when c keeps a tag store (ts != nil).
func functionalBatch(c Interface, ts *tagStore, lines []memtypes.LineAddr, flags []uint8) {
	for len(lines) > 0 {
		n := min(len(lines), touchGroup)
		if ts != nil {
			ts.touch(lines[:n])
		}
		for i, line := range lines[:n] {
			if flags[i]&FunctionalWrite != 0 {
				c.WritebackFunctional(line)
			} else {
				c.AccessReadFunctional(line)
			}
		}
		lines, flags = lines[n:], flags[n:]
	}
}

// FunctionalBatch implements Interface.
func (c *Cache) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	functionalBatch(c, &c.tagStore, lines, flags)
}

// FunctionalBatch implements Interface.
func (c *CACache) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	functionalBatch(c, nil, lines, flags)
}

// FunctionalBatch implements Interface.
func (c *Banshee) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	functionalBatch(c, nil, lines, flags)
}

// FunctionalBatch implements Interface.
func (c *Gemini) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	functionalBatch(c, &c.tagStore, lines, flags)
}

// FunctionalBatch implements Interface.
func (c *TDRAM) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	functionalBatch(c, &c.tagStore, lines, flags)
}
