package dramcache

import "accord/internal/memtypes"

// This file implements Interface.FunctionalBatch for every bundled
// organization. Each implementation is a loop over the backend's own
// functional ops — but on a concrete receiver, so the calls devirtualize
// and the per-event costs of the generic path (two interface dispatches,
// an Event struct round-trip, a window bounds check) are paid once per
// batch instead of once per event. The sampling spine
// (sim.advanceFunctional via cpu.StepFunctionalBatch) hands whole
// trace-cache windows here; dctest proves batch-vs-single-step
// snapshot-byte equivalence for all registered backends.
//
// The organizations on the packed tag store (nway, Gemini, TDRAM) walk
// their windows in groups of touchGroup events, loading every set of a
// group (touchSets) before running its ops. At gigascale the tag store
// is far larger than the host's caches, so nearly every op waits on a
// host memory miss for its set; issued back to back, a group's misses
// are in flight together instead of one after another (DESIGN.md §12.3).

// FunctionalWrite is the flags bit selecting WritebackFunctional; it
// matches workloads.FlagWrite so trace-cache flag bytes pass through
// without re-encoding.
const FunctionalWrite uint8 = 1 << 0

// FunctionalBatch implements Interface for the set-associative cache.
func (c *Cache) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	for len(lines) > 0 {
		n := min(len(lines), touchGroup)
		c.touched |= touchSets(c.meta, lines[:n], c.setMask, c.ways)
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

// FunctionalBatch implements Interface for the column-associative cache.
func (c *CACache) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	for i, line := range lines {
		if flags[i]&FunctionalWrite != 0 {
			c.WritebackFunctional(line)
		} else {
			c.AccessReadFunctional(line)
		}
	}
}

// FunctionalBatch implements Interface for Banshee.
func (c *Banshee) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	for i, line := range lines {
		if flags[i]&FunctionalWrite != 0 {
			c.WritebackFunctional(line)
		} else {
			c.AccessReadFunctional(line)
		}
	}
}

// FunctionalBatch implements Interface for Gemini.
func (c *Gemini) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	for len(lines) > 0 {
		n := min(len(lines), touchGroup)
		c.touched |= touchSets(c.meta, lines[:n], c.setMask, geminiWays)
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

// FunctionalBatch implements Interface for TDRAM.
func (c *TDRAM) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	for len(lines) > 0 {
		n := min(len(lines), touchGroup)
		c.touched |= touchSets(c.meta, lines[:n], c.setMask, c.ways)
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

// touchGroup is how many events' tag sets FunctionalBatch loads ahead of
// running them. Groups of 4 and 8 measured slower; 16 to 64 performed
// about the same (DESIGN.md §12.4).
const touchGroup = 16
