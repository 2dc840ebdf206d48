package cache

import (
	"encoding/binary"
	"fmt"

	"accord/internal/ckpt"
)

// Per-component version bytes; bump on any encoding change.
const (
	sramCacheVersion = 1
	hierarchyVersion = 1
)

// lineRecordBytes is the encoded size of one line: tag and LRU stamp as
// little-endian words, a flags byte (1 = valid, 2 = dirty, 4 = DCP
// present), then the DCP way.
const lineRecordBytes = 18

// Snapshot serializes the cache's line array, LRU clock, and statistics.
func (c *Cache) Snapshot(e *ckpt.Encoder) {
	e.U8(sramCacheVersion)
	e.U64(c.clock)
	if b := e.Reserve(lineRecordBytes * len(c.lines)); b != nil {
		for i := range c.lines {
			l := &c.lines[i]
			r := b[lineRecordBytes*i : lineRecordBytes*(i+1)]
			binary.LittleEndian.PutUint64(r, l.tag)
			binary.LittleEndian.PutUint64(r[8:], l.used)
			var flags uint8
			if l.valid {
				flags |= 1
			}
			if l.dirty {
				flags |= 2
			}
			if l.dcp.Present {
				flags |= 4
			}
			r[16] = flags
			r[17] = l.dcp.Way
		}
	}
	e.U64(c.stats.Hits)
	e.U64(c.stats.Misses)
	e.U64(c.stats.Writebacks)
	e.U64(c.stats.Fills)
}

// Restore replaces the cache's state with a snapshot.
func (c *Cache) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != sramCacheVersion {
		d.Failf("cache: snapshot version %d, want %d", v, sramCacheVersion)
	}
	c.clock = d.U64()
	b := d.Raw(lineRecordBytes * len(c.lines))
	if err := d.Err(); err != nil {
		return err
	}
	for i := range c.lines {
		r := b[lineRecordBytes*i : lineRecordBytes*(i+1)]
		tag := binary.LittleEndian.Uint64(r)
		used := binary.LittleEndian.Uint64(r[8:])
		flags, way := r[16], r[17]
		if flags > 7 {
			d.Failf("cache: line[%d] flags %#x invalid", i, flags)
			return d.Err()
		}
		c.lines[i] = line{
			tag:   tag,
			used:  used,
			dcp:   DCP{Present: flags&4 != 0, Way: way},
			valid: flags&1 != 0,
			dirty: flags&2 != 0,
		}
	}
	c.stats.Hits = d.U64()
	c.stats.Misses = d.U64()
	c.stats.Writebacks = d.U64()
	c.stats.Fills = d.U64()
	return d.Err()
}

// Snapshot serializes the hierarchy's private levels. The shared L3 is
// excluded: it belongs to every hierarchy at once, so the composing
// system snapshots it exactly once.
func (h *Hierarchy) Snapshot(e *ckpt.Encoder) {
	e.U8(hierarchyVersion)
	h.l1.Snapshot(e)
	h.l2.Snapshot(e)
}

// Restore replaces the private L1/L2 state with a snapshot.
func (h *Hierarchy) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != hierarchyVersion {
		d.Failf("cache: hierarchy snapshot version %d, want %d", v, hierarchyVersion)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := h.l1.Restore(d); err != nil {
		return err
	}
	return h.l2.Restore(d)
}

// CopyFrom makes c a copy of src, a cache of the same geometry, leaving
// c exactly as restoring src's Snapshot would: lines, LRU clock and
// statistics. It allocates nothing.
func (c *Cache) CopyFrom(src *Cache) error {
	if len(src.lines) != len(c.lines) || src.ways != c.ways {
		return fmt.Errorf("cache: cannot copy a %d-line %d-way cache into a %d-line %d-way cache",
			len(src.lines), src.ways, len(c.lines), c.ways)
	}
	copy(c.lines, src.lines)
	c.clock = src.clock
	c.stats = src.stats
	return nil
}

// CopyFrom copies src's private L1 and L2 into h. Like Snapshot it
// leaves the shared L3 to the composing system.
func (h *Hierarchy) CopyFrom(src *Hierarchy) error {
	if err := h.l1.CopyFrom(src.l1); err != nil {
		return err
	}
	return h.l2.CopyFrom(src.l2)
}
