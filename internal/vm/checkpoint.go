package vm

import "accord/internal/ckpt"

// vmVersion tags the System encoding; bump on any layout change.
const vmVersion = 1

// Snapshot serializes the allocator (frame bitmap, cursors, RNG) and
// every address space's page table. Leaves are written in directory
// probe-index order; the order is a reconstruction detail — translation
// depends only on the hi → leaf mapping — so restore re-inserts them into
// a fresh directory.
func (s *System) Snapshot(e *ckpt.Encoder) {
	e.U8(vmVersion)
	e.U64(s.numFrames)
	e.U8(uint8(s.policy))
	e.U64(s.usedCount)
	e.U64(s.nextSeq)
	s.rng.Snapshot(e)
	e.Bools(s.used)
	e.U32(uint32(len(s.spaces)))
	for _, sp := range s.spaces {
		e.U32(uint32(sp.mapped))
		e.U32(uint32(sp.dir.used))
		for _, l := range sp.dir.leaves {
			if l == nil {
				continue
			}
			e.U64(l.hi)
			e.U64s(l.frames[:])
		}
	}
}

// Restore replaces the VM system's state with a snapshot. On error the
// system is left in an unspecified state and must be discarded.
func (s *System) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != vmVersion {
		d.Failf("vm: snapshot version %d, want %d", v, vmVersion)
	}
	if nf := d.U64(); d.Err() == nil && nf != s.numFrames {
		d.Failf("vm: snapshot has %d frames, system has %d", nf, s.numFrames)
	}
	if p := d.U8(); d.Err() == nil && AllocPolicy(p) != s.policy {
		d.Failf("vm: snapshot policy %d, system policy %d", p, s.policy)
	}
	usedCount := d.U64()
	nextSeq := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if err := s.rng.Restore(d); err != nil {
		return err
	}
	used := make([]bool, len(s.used))
	d.Bools(used)
	if d.Err() == nil {
		var pop uint64
		for _, u := range used {
			if u {
				pop++
			}
		}
		if pop != usedCount {
			d.Failf("vm: frame bitmap population %d != usedCount %d", pop, usedCount)
		}
	}
	if n := d.U32(); d.Err() == nil && int(n) != len(s.spaces) {
		d.Failf("vm: snapshot has %d spaces, system has %d", n, len(s.spaces))
	}
	if err := d.Err(); err != nil {
		return err
	}
	for si, sp := range s.spaces {
		mapped := d.U32()
		nLeaves := d.Len(1 << 24) // 2^24 leaves = 2^33 pages; far beyond any run
		if err := d.Err(); err != nil {
			return err
		}
		dir := newPTDir()
		for i := 0; i < nLeaves; i++ {
			l := &ptLeaf{hi: d.U64()}
			d.U64s(l.frames[:])
			if err := d.Err(); err != nil {
				return err
			}
			for j, f := range l.frames {
				if f != 0 && f-1 >= s.numFrames {
					d.Failf("vm: space %d leaf %#x page %d maps frame %d beyond %d frames",
						si, l.hi, j, f-1, s.numFrames)
					return d.Err()
				}
			}
			if dir.find(l.hi) != nil {
				d.Failf("vm: space %d has duplicate leaf %#x", si, l.hi)
				return d.Err()
			}
			dir.insert(l)
		}
		sp.dir = dir
		sp.mru = [mruWays]*ptLeaf{}
		sp.mapped = int(mapped)
	}
	s.usedCount = usedCount
	s.nextSeq = nextSeq
	copy(s.used, used)
	return nil
}
