package dramcache

import (
	"encoding/binary"
	"fmt"

	"accord/internal/ckpt"
	"accord/internal/core"
	"accord/internal/memtypes"
)

// errNoPolicyCheckpoint reports a policy that cannot be serialized.
func errNoPolicyCheckpoint(name string) error {
	return fmt.Errorf("dramcache: policy %q does not support checkpointing", name)
}

// Per-component version bytes; bump on any encoding change.
const (
	cacheVersion = 1
	caVersion    = 1
)

// snapshotStats writes every Stats field in declaration order.
func snapshotStats(e *ckpt.Encoder, s *Stats) {
	e.U64(s.Reads)
	e.U64(s.ReadHits)
	e.U64(s.Writebacks)
	e.U64(s.WritebackHits)
	e.U64(s.Predictions)
	e.U64(s.Correct)
	e.U64(s.ProbeReads)
	e.U64(s.InstallWrites)
	e.U64(s.WritebackWrites)
	e.U64(s.VictimReads)
	e.U64(s.ReplStateOps)
	e.U64(s.NVMReads)
	e.U64(s.NVMWrites)
	e.U64(s.FilteredMisses)
	snapshotLatency(e, &s.HitLatency)
	snapshotLatency(e, &s.MissLatency)
}

func restoreStats(d *ckpt.Decoder, s *Stats) {
	s.Reads = d.U64()
	s.ReadHits = d.U64()
	s.Writebacks = d.U64()
	s.WritebackHits = d.U64()
	s.Predictions = d.U64()
	s.Correct = d.U64()
	s.ProbeReads = d.U64()
	s.InstallWrites = d.U64()
	s.WritebackWrites = d.U64()
	s.VictimReads = d.U64()
	s.ReplStateOps = d.U64()
	s.NVMReads = d.U64()
	s.NVMWrites = d.U64()
	s.FilteredMisses = d.U64()
	restoreLatency(d, &s.HitLatency)
	restoreLatency(d, &s.MissLatency)
}

func snapshotLatency(e *ckpt.Encoder, l *LatencySum) {
	e.U64(l.Count)
	e.I64(l.Sum)
	for _, b := range l.Buckets {
		e.U64(b)
	}
}

func restoreLatency(d *ckpt.Decoder, l *LatencySum) {
	l.Count = d.U64()
	l.Sum = d.I64()
	for i := range l.Buckets {
		l.Buckets[i] = d.U64()
	}
}

// metaRecordBytes is the encoded size of one way: the tag as a
// little-endian word, then a flags byte (1 = valid, 2 = dirty).
const metaRecordBytes = 9

// snapshotMeta writes a packed tag store as metaRecordBytes records, the
// bytes the nway cache, Gemini and TDRAM have always written.
func snapshotMeta(e *ckpt.Encoder, meta []wayMeta) {
	b := e.Reserve(metaRecordBytes * len(meta))
	if b == nil {
		return
	}
	for i, m := range meta {
		r := b[metaRecordBytes*i : metaRecordBytes*(i+1)]
		binary.LittleEndian.PutUint64(r, m.tag())
		r[8] = uint8(m & (metaValid | metaDirty))
	}
}

// restoreMeta reads what snapshotMeta wrote into meta, rejecting flags
// outside the two defined bits and tags too wide to pack. who prefixes
// the error.
func restoreMeta(d *ckpt.Decoder, meta []wayMeta, who string) error {
	b := d.Raw(metaRecordBytes * len(meta))
	if err := d.Err(); err != nil {
		return err
	}
	for i := range meta {
		r := b[metaRecordBytes*i : metaRecordBytes*(i+1)]
		tag, flags := binary.LittleEndian.Uint64(r), wayMeta(r[8])
		if flags&^(metaValid|metaDirty) != 0 {
			d.Failf("%s: meta[%d] flags %#x invalid", who, i, r[8])
			return d.Err()
		}
		if tag > maxMetaTag {
			d.Failf("%s: meta[%d] tag %#x exceeds %d bits", who, i, tag, 64-metaTagShift)
			return d.Err()
		}
		meta[i] = wayMeta(tag<<metaTagShift) | flags
	}
	return nil
}

// Snapshot serializes the set arrays, replacement state, statistics, and
// the attached policy. It returns an error when the policy does not
// implement core.Checkpointable — such configurations simply cannot be
// checkpointed, and the caller falls back to a cold run.
func (c *Cache) Snapshot(e *ckpt.Encoder) error {
	cp, ok := c.policy.(core.Checkpointable)
	if !ok {
		return errNoPolicyCheckpoint(c.policy.Name())
	}
	e.U8(cacheVersion)
	e.U64(c.clock)
	snapshotMeta(e, c.meta)
	e.Bool(c.lru != nil)
	e.U64s(c.lru)
	snapshotStats(e, &c.stats)
	cp.Snapshot(e)
	return nil
}

// Restore replaces the cache's state with a snapshot. On error the cache
// is left in an unspecified state and must be discarded.
func (c *Cache) Restore(d *ckpt.Decoder) error {
	cp, ok := c.policy.(core.Checkpointable)
	if !ok {
		return errNoPolicyCheckpoint(c.policy.Name())
	}
	if v := d.U8(); d.Err() == nil && v != cacheVersion {
		d.Failf("dramcache: snapshot version %d, want %d", v, cacheVersion)
	}
	c.clock = d.U64()
	if err := restoreMeta(d, c.meta, "dramcache"); err != nil {
		return err
	}
	hasLRU := d.Bool()
	if d.Err() == nil && hasLRU != (c.lru != nil) {
		d.Failf("dramcache: snapshot LRU=%v, cache has LRU=%v", hasLRU, c.lru != nil)
	}
	if d.Err() != nil {
		return d.Err()
	}
	d.U64s(c.lru)
	restoreStats(d, &c.stats)
	if err := d.Err(); err != nil {
		return err
	}
	return cp.Restore(d)
}

// Snapshot serializes the CA-cache's slot arrays and statistics. The
// error return is always nil; it exists so Cache and CACache satisfy one
// checkpointing interface at the sim layer.
func (c *CACache) Snapshot(e *ckpt.Encoder) error {
	e.U8(caVersion)
	if b := e.Reserve(8 * len(c.lines)); b != nil {
		for i, l := range c.lines {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(l))
		}
	}
	e.Bools(c.valid)
	e.Bools(c.dirty)
	snapshotStats(e, &c.stats)
	return nil
}

// Restore replaces the CA-cache's state with a snapshot.
func (c *CACache) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != caVersion {
		d.Failf("dramcache: CA snapshot version %d, want %d", v, caVersion)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if b := d.Raw(8 * len(c.lines)); b != nil {
		for i := range c.lines {
			c.lines[i] = memtypes.LineAddr(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	d.Bools(c.valid)
	d.Bools(c.dirty)
	restoreStats(d, &c.stats)
	return d.Err()
}
