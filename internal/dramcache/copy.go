package dramcache

import (
	"fmt"

	"accord/internal/core"
)

// In-memory forks. Every bundled backend has a CopyFrom method, the
// in-memory counterpart of Snapshot and Restore: it makes the receiver a
// copy of src, an instance of the same organization and geometry,
// leaving it exactly as restoring src's Snapshot would. It copies into
// the receiver's own arrays and allocates nothing. CopyFrom is optional
// and deliberately outside Interface: the sampled-run driver finds it by
// type assertion and forks through the codec when a backend (or an nway
// cache's policy) lacks it. On error the receiver is unspecified, as
// after a failed Restore.

// policyCopier is the optional in-memory counterpart of
// core.Checkpointable. All four bundled policies implement it.
type policyCopier interface {
	CopyFrom(src core.Policy) error
}

// errCopy reports a copy between backends of different organizations or
// geometries.
func errCopy(dst, src Interface) error {
	return fmt.Errorf("dramcache: cannot copy %s (%T) into %s (%T)", src.Name(), src, dst.Name(), dst)
}

// CopyFrom copies src, an nway cache with the same sets, ways and
// replacement, into c: tags, LRU stamps and clock, statistics, and the
// policy's state. It fails when the policy has no CopyFrom method.
func (c *Cache) CopyFrom(src Interface) error {
	pc, ok := c.policy.(policyCopier)
	if !ok {
		return fmt.Errorf("dramcache: policy %q does not support copying", c.policy.Name())
	}
	s, ok := src.(*Cache)
	if !ok || (s.lru == nil) != (c.lru == nil) || !c.copyFrom(&s.tagStore) {
		return errCopy(c, src)
	}
	c.clock = s.clock
	copy(c.lru, s.lru)
	return pc.CopyFrom(s.policy)
}

// CopyFrom copies src, a CA cache of the same size, into c.
func (c *CACache) CopyFrom(src Interface) error {
	s, ok := src.(*CACache)
	if !ok || s.sets != c.sets {
		return errCopy(c, src)
	}
	copy(c.lines, s.lines)
	copy(c.valid, s.valid)
	copy(c.dirty, s.dirty)
	c.stats = s.stats
	return nil
}

// CopyFrom copies src, a Banshee cache with as many page sets, into c:
// resident pages, candidate counters and statistics.
func (c *Banshee) CopyFrom(src Interface) error {
	s, ok := src.(*Banshee)
	if !ok || s.pageSets != c.pageSets {
		return errCopy(c, src)
	}
	copy(c.meta, s.meta)
	copy(c.cand, s.cand)
	c.stats = s.stats
	return nil
}

// CopyFrom copies src, a Gemini cache with as many sets, into c.
func (c *Gemini) CopyFrom(src Interface) error {
	if s, ok := src.(*Gemini); !ok || !c.copyFrom(&s.tagStore) {
		return errCopy(c, src)
	}
	return nil
}

// CopyFrom copies src, a TDRAM cache with the same sets and ways, into
// c: tags, the MRU and round-robin hints, and statistics.
func (c *TDRAM) CopyFrom(src Interface) error {
	s, ok := src.(*TDRAM)
	if !ok || !c.copyFrom(&s.tagStore) {
		return errCopy(c, src)
	}
	copy(c.mru, s.mru)
	copy(c.rr, s.rr)
	return nil
}
