package core

import (
	"fmt"

	"accord/internal/ckpt"
	"accord/internal/memtypes"
)

// Checkpointable is the optional snapshot interface a Policy may
// implement. It is separate from Policy so custom policies (and the
// public alias in the facade package) keep compiling; the simulator
// type-asserts and refuses to checkpoint a policy that lacks it.
type Checkpointable interface {
	Snapshot(e *ckpt.Encoder)
	Restore(d *ckpt.Decoder) error
}

// Per-component version bytes; bump on any encoding change.
const (
	randPolicyVersion = 1
	mruPolicyVersion  = 1
	ptagVersion       = 1
	accordVersion     = 1
	regionTabVersion  = 1
)

// Snapshot implements Checkpointable.
func (p *RandPolicy) Snapshot(e *ckpt.Encoder) {
	e.U8(randPolicyVersion)
	p.rng.Snapshot(e)
}

// Restore implements Checkpointable.
func (p *RandPolicy) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != randPolicyVersion {
		d.Failf("core: rand policy snapshot version %d, want %d", v, randPolicyVersion)
	}
	if err := d.Err(); err != nil {
		return err
	}
	return p.rng.Restore(d)
}

// Snapshot implements Checkpointable.
func (p *MRUPolicy) Snapshot(e *ckpt.Encoder) {
	e.U8(mruPolicyVersion)
	p.rng.Snapshot(e)
	e.Raw(p.mru)
}

// Restore implements Checkpointable.
func (p *MRUPolicy) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != mruPolicyVersion {
		d.Failf("core: mru policy snapshot version %d, want %d", v, mruPolicyVersion)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := p.rng.Restore(d); err != nil {
		return err
	}
	mru := d.Raw(len(p.mru))
	if err := d.Err(); err != nil {
		return err
	}
	for i, w := range mru {
		if int(w) >= p.geom.Ways {
			d.Failf("core: mru[%d] = %d exceeds %d ways", i, w, p.geom.Ways)
			return d.Err()
		}
	}
	copy(p.mru, mru)
	return nil
}

// Snapshot implements Checkpointable.
func (p *PartialTagPolicy) Snapshot(e *ckpt.Encoder) {
	e.U8(ptagVersion)
	p.rng.Snapshot(e)
	e.Raw(p.tags)
	e.Bools(p.live)
}

// Restore implements Checkpointable.
func (p *PartialTagPolicy) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != ptagVersion {
		d.Failf("core: partial-tag snapshot version %d, want %d", v, ptagVersion)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := p.rng.Restore(d); err != nil {
		return err
	}
	tags := d.Raw(len(p.tags))
	d.Bools(p.live)
	if err := d.Err(); err != nil {
		return err
	}
	mask := uint8((1 << p.bits) - 1)
	for i, tg := range tags {
		if tg&^mask != 0 {
			d.Failf("core: partial tag[%d] = %#x exceeds %d bits", i, tg, p.bits)
			return d.Err()
		}
	}
	copy(p.tags, tags)
	return nil
}

// Snapshot implements Checkpointable. The diagnostic RIT/RLT counters are
// included because they are metrics-exported and never reset at the
// warmup/measure boundary: a restored run must report the same cumulative
// values a cold run would.
func (a *ACCORD) Snapshot(e *ckpt.Encoder) {
	e.U8(accordVersion)
	a.rng.Snapshot(e)
	e.Bool(a.cfg.UseGWS)
	if a.cfg.UseGWS {
		a.rit.snapshot(e)
		a.rlt.snapshot(e)
	}
	e.U64(a.ritHits)
	e.U64(a.ritMisses)
	e.U64(a.rltHits)
	e.U64(a.rltMisses)
}

// Restore implements Checkpointable.
func (a *ACCORD) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != accordVersion {
		d.Failf("core: accord snapshot version %d, want %d", v, accordVersion)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := a.rng.Restore(d); err != nil {
		return err
	}
	gws := d.Bool()
	if d.Err() == nil && gws != a.cfg.UseGWS {
		d.Failf("core: accord snapshot GWS=%v, policy has GWS=%v", gws, a.cfg.UseGWS)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if a.cfg.UseGWS {
		if err := a.rit.restore(d, a.ways); err != nil {
			return err
		}
		if err := a.rlt.restore(d, a.ways); err != nil {
			return err
		}
	}
	a.ritHits = d.U64()
	a.ritMisses = d.U64()
	a.rltHits = d.U64()
	a.rltMisses = d.U64()
	return d.Err()
}

// snapshot writes the table's logical content: (region, way) pairs from
// LRU to MRU. Physical slot numbering and probe-array layout are
// reconstruction details — lookups and evictions depend only on the
// region→way mapping and the recency order, so serializing the logical
// order keeps the encoding independent of the arrival history that
// produced the layout.
func (t *regionTable) snapshot(e *ckpt.Encoder) {
	e.U8(regionTabVersion)
	e.U32(uint32(t.cap))
	e.U32(uint32(t.used))
	for slot := t.tail; slot >= 0; slot = int(t.slots[slot].prev) {
		e.U64(uint64(t.slots[slot].region))
		e.U8(t.slots[slot].way)
	}
}

// restore rebuilds the table in place, in its own slot and index
// arrays, by re-inserting the pairs LRU-first, which reproduces the exact
// recency order. A restore that fails partway leaves the table holding
// the pairs read so far; the caller discards the policy, as on any failed
// Restore.
func (t *regionTable) restore(d *ckpt.Decoder, ways int) error {
	if v := d.U8(); d.Err() == nil && v != regionTabVersion {
		d.Failf("core: region table snapshot version %d, want %d", v, regionTabVersion)
	}
	if c := d.U32(); d.Err() == nil && int(c) != t.cap {
		d.Failf("core: region table capacity %d, want %d", c, t.cap)
	}
	n := d.Len(t.cap)
	if err := d.Err(); err != nil {
		return err
	}
	clear(t.probe)
	t.head, t.tail, t.used, t.memo = -1, -1, 0, -1
	for i := 0; i < n; i++ {
		region := d.U64()
		way := d.U8()
		if d.Err() == nil && int(way) >= ways {
			d.Failf("core: region table way %d exceeds %d ways", way, ways)
		}
		if err := d.Err(); err != nil {
			return err
		}
		if t.findSlot(memtypes.RegionID(region)) >= 0 {
			d.Failf("core: region table has duplicate region %#x", region)
			return d.Err()
		}
		t.insert(memtypes.RegionID(region), int(way))
	}
	return nil
}

// The CopyFrom methods are the in-memory counterpart of Snapshot and
// Restore: each makes the receiver a copy of src, a policy of the same
// type and shape, leaving it exactly as restoring src's Snapshot would.
// They copy into the receiver's own buffers and allocate nothing, so
// interval forks of a sampled run skip the codec (the DRAM cache finds
// the method by type assertion, like Checkpointable).

// errPolicyCopy reports a copy between policies of different types or
// shapes.
func errPolicyCopy(dst, src Policy) error {
	return fmt.Errorf("core: cannot copy policy %s (%T) into %s (%T)", src.Name(), src, dst.Name(), dst)
}

// CopyFrom copies src, a RandPolicy of the same geometry, into p.
func (p *RandPolicy) CopyFrom(src Policy) error {
	s, ok := src.(*RandPolicy)
	if !ok || s.geom != p.geom {
		return errPolicyCopy(p, src)
	}
	*p.rng = *s.rng
	return nil
}

// CopyFrom copies src, an MRUPolicy of the same geometry, into p.
func (p *MRUPolicy) CopyFrom(src Policy) error {
	s, ok := src.(*MRUPolicy)
	if !ok || s.geom != p.geom {
		return errPolicyCopy(p, src)
	}
	*p.rng = *s.rng
	copy(p.mru, s.mru)
	return nil
}

// CopyFrom copies src, a PartialTagPolicy of the same geometry and tag
// width, into p.
func (p *PartialTagPolicy) CopyFrom(src Policy) error {
	s, ok := src.(*PartialTagPolicy)
	if !ok || s.geom != p.geom || s.bits != p.bits {
		return errPolicyCopy(p, src)
	}
	*p.rng = *s.rng
	copy(p.tags, s.tags)
	copy(p.live, s.live)
	return nil
}

// CopyFrom copies src, an ACCORD policy with the same ways, GWS setting
// and region-table capacities, into a: the RNG, both region tables slot
// for slot, and the diagnostic counters Snapshot carries.
func (a *ACCORD) CopyFrom(src Policy) error {
	s, ok := src.(*ACCORD)
	if !ok || s.ways != a.ways || s.cfg.UseGWS != a.cfg.UseGWS ||
		a.cfg.UseGWS && (s.rit.cap != a.rit.cap || s.rlt.cap != a.rlt.cap) {
		return errPolicyCopy(a, src)
	}
	*a.rng = *s.rng
	if a.cfg.UseGWS {
		a.rit.copyFrom(s.rit)
		a.rlt.copyFrom(s.rlt)
	}
	a.ritHits, a.ritMisses = s.ritHits, s.ritMisses
	a.rltHits, a.rltMisses = s.rltHits, s.rltMisses
	return nil
}

// copyFrom makes t a slot-for-slot copy of src, a table of the same
// capacity: the same entries in the same slots, recency list, probe
// index and memo. Restore rebuilds the same logical content in other
// slots; lookups, inserts and snapshots see only the logical content, so
// the two are indistinguishable.
func (t *regionTable) copyFrom(src *regionTable) {
	copy(t.slots, src.slots)
	copy(t.probe, src.probe)
	t.head, t.tail, t.used, t.memo = src.head, src.tail, src.used, src.memo
}
