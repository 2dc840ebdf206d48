package dramcache

import "accord/internal/memtypes"

// This file implements the functional fast-forward paths of both L4
// organizations (see DESIGN.md §9). A functional access mutates exactly
// the state a detailed access would — tags, valid/dirty bits, LRU stamps
// and clock, and the attached policy's tables, counters, and RNG — while
// touching neither DRAM device (no probes, no busy intervals, no row
// buffers) and none of the Stats fields. Because warm-state checkpoints
// zero Stats at the warmup boundary (ResetStats) and never include
// device timing, the warm state a functional run leaves behind is
// byte-identical to a detailed run of the same events; the differential
// tests in internal/sim enforce this.
//
// The policy-method call sequence is mirrored exactly, not approximately:
// policies draw from a checkpointed RNG (rand, PWS installs) and bump
// checkpointed diagnostic counters (ACCORD's RIT/RLT hits) inside
// PredictWay/InstallWay/FilterMiss, so skipping or reordering a call
// would silently fork the state. Only CandidateWays — pure for every
// policy, feeding probe schedules the functional mode has no use for —
// is elided.

// AccessReadFunctional services a demand read in functional mode. It
// returns the way the line resides in after the access (hit way, or
// install way on a miss), matching ReadResult.Way so the SRAM
// hierarchy's DCP state warms identically.
func (c *Cache) AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool) {
	set, tag := c.index(line)
	region := line.Region()
	actual := c.findWay(set, tag)
	h := actual >= 0

	// Only the predicted lookup consults the policy before probing; the
	// other modes' probe schedules come from the pure CandidateWays.
	if c.cfg.Lookup == LookupPredicted {
		c.policy.PredictWay(set, tag, region)
		if !h {
			c.policy.FilterMiss(set, tag)
		}
	}
	c.policy.ObserveAccess(set, tag, region, actual, h)

	if h {
		if c.cfg.LRUReplacement {
			c.lru[c.slot(set, actual)] = c.bump()
		}
		return uint8(actual), true
	}
	return uint8(c.installFunctional(set, tag, region, false)), false
}

// installFunctional is install without the victim read, NVM traffic, and
// device write: the victim's metadata is simply overwritten.
func (c *Cache) installFunctional(set, tag uint64, region memtypes.RegionID, dirty bool) int {
	var way int
	if c.cfg.LRUReplacement {
		way = c.lruVictim(set, tag)
	} else {
		way = c.policy.InstallWay(set, tag, region)
	}
	s := c.slot(set, way)
	c.meta[s] = residentMeta(tag, dirty)
	if c.cfg.LRUReplacement {
		c.lru[s] = c.bump()
	}
	c.policy.ObserveInstall(set, tag, region, way)
	return way
}

// WritebackFunctional handles a dirty L3 eviction in functional mode.
func (c *Cache) WritebackFunctional(line memtypes.LineAddr) {
	set, tag := c.index(line)
	region := line.Region()
	if way := c.findWay(set, tag); way >= 0 {
		s := c.slot(set, way)
		c.meta[s] |= metaDirty
		if c.cfg.LRUReplacement {
			c.lru[s] = c.bump()
		}
		return
	}
	c.installFunctional(set, tag, region, true)
}

// AccessReadFunctional implements the functional read for the
// column-associative organization, including the slow-hit swap (the swap
// is cache state, not timing: skipping it would leave the line slow and
// diverge from the detailed warm state).
func (c *CACache) AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool) {
	i1 := c.primary(line)
	i2 := c.rehash(i1)
	if c.valid[i1] && c.lines[i1] == line {
		return 0, true
	}
	if c.valid[i2] && c.lines[i2] == line {
		c.swapFunctional(i1, i2)
		return 0, true
	}
	c.installAtFunctional(line, i1, i2, false)
	return 0, false
}

// swapFunctional is swap without the two device writes.
func (c *CACache) swapFunctional(i1, i2 uint64) {
	c.lines[i1], c.lines[i2] = c.lines[i2], c.lines[i1]
	c.valid[i1], c.valid[i2] = c.valid[i2], c.valid[i1]
	c.dirty[i1], c.dirty[i2] = c.dirty[i2], c.dirty[i1]
}

// installAtFunctional is installAt without the NVM eviction write and
// device writes; the occupancy shuffle is identical.
func (c *CACache) installAtFunctional(line memtypes.LineAddr, i1, i2 uint64, dirty bool) {
	if c.valid[i1] {
		c.lines[i2], c.valid[i2], c.dirty[i2] = c.lines[i1], true, c.dirty[i1]
	} else {
		c.valid[i2] = false
	}
	c.lines[i1], c.valid[i1], c.dirty[i1] = line, true, dirty
}

// WritebackFunctional implements the functional writeback for the
// column-associative organization.
func (c *CACache) WritebackFunctional(line memtypes.LineAddr) {
	i1 := c.primary(line)
	i2 := c.rehash(i1)
	if c.valid[i1] && c.lines[i1] == line {
		c.dirty[i1] = true
		return
	}
	if c.valid[i2] && c.lines[i2] == line {
		c.dirty[i2] = true
		return
	}
	c.installAtFunctional(line, i1, i2, true)
}
