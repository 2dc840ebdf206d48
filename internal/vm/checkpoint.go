package vm

import (
	"fmt"

	"accord/internal/ckpt"
)

// vmVersion tags the System encoding; bump on any layout change.
const vmVersion = 1

// allocRandom is the encoding's allocation-policy byte. The random
// allocator is the only one, so the byte is always 0; it stays in the
// layout so existing checkpoints keep their bytes.
const allocRandom = 0

// Snapshot serializes the allocator (frame bitmap, cursors, RNG) and
// every address space's page table. Leaves are written in directory
// cell order, and Restore puts them back into the same cells, so a
// restored space later writes its leaves in the order its source would.
func (s *System) Snapshot(e *ckpt.Encoder) {
	e.U8(vmVersion)
	e.U64(s.numFrames)
	e.U8(allocRandom)
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

// Restore replaces the VM system's state with a snapshot. It decodes
// the frame bitmap straight into the system's own and the page tables
// into its own directories and leaf nodes, so a restore over a system
// that already holds as many leaves allocates nothing. On error the
// system is left in an unspecified state and must be discarded.
func (s *System) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != vmVersion {
		d.Failf("vm: snapshot version %d, want %d", v, vmVersion)
	}
	if nf := d.U64(); d.Err() == nil && nf != s.numFrames {
		d.Failf("vm: snapshot has %d frames, system has %d", nf, s.numFrames)
	}
	if p := d.U8(); d.Err() == nil && p != allocRandom {
		d.Failf("vm: snapshot allocation policy %d, want %d (random)", p, allocRandom)
	}
	usedCount := d.U64()
	nextSeq := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if err := s.rng.Restore(d); err != nil {
		return err
	}
	if pop := uint64(d.Bools(s.used)); d.Err() == nil && pop != usedCount {
		d.Failf("vm: frame bitmap population %d != usedCount %d", pop, usedCount)
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
		if err := sp.dir.restore(d, nLeaves, si, s.numFrames); err != nil {
			return err
		}
		sp.mru = [mruWays]*ptLeaf{}
		sp.mapped = int(mapped)
	}
	s.usedCount = usedCount
	s.nextSeq = nextSeq
	return nil
}

// leafRecordBytes is the encoded size of one page-table leaf: its high
// VPN bits, then a frame word per page.
const leafRecordBytes = 8 + 8*leafPages

// restore decodes n leaves, written in directory cell order, into dir,
// reusing its leaf nodes as copyFrom does. si and numFrames name the
// space and bound its frames in errors.
func (dir *ptDir) restore(d *ckpt.Decoder, n, si int, numFrames uint64) error {
	// The same leaf count grows a directory to the same size whatever
	// the insertion order, so it is sized once, for the leaves the input
	// can hold: a corrupt count fails on the first missing leaf before it
	// can drive a large allocation.
	size := 8
	for 2*min(n, d.Remaining()/leafRecordBytes) > size {
		size *= 2
	}
	// leaves[i] takes snapshot leaf i: the directory's own nodes first.
	leaves := dir.ownLeaves()
	if len(dir.leaves) == size {
		clear(dir.leaves)
	} else {
		dir.leaves = make([]*ptLeaf, size)
	}
	dir.mask, dir.used = uint64(size-1), 0
	for i := 0; i < n; i++ {
		if i == len(leaves) {
			leaves = append(leaves, new(ptLeaf))
		}
		l := leaves[i]
		l.hi = d.U64()
		d.U64s(l.frames[:])
		if err := d.Err(); err != nil {
			return err
		}
		for j, f := range l.frames {
			if f != 0 && f-1 >= numFrames {
				d.Failf("vm: space %d leaf %#x page %d maps frame %d beyond %d frames",
					si, l.hi, j, f-1, numFrames)
				return d.Err()
			}
		}
		if dir.find(l.hi) != nil {
			d.Failf("vm: space %d has duplicate leaf %#x", si, l.hi)
			return d.Err()
		}
		dir.insert(l)
	}
	// Linear probing without deletion fills the same cells whatever the
	// insertion order. Snapshot wrote the leaves in cell order, so
	// handing them to the occupied cells in ascending order rebuilds the
	// snapshotted layout. A blob with the leaves in any other order could
	// leave one unreachable from its home cell; reject it.
	next := 0
	for c, l := range dir.leaves {
		if l != nil {
			dir.leaves[c] = leaves[next]
			next++
		}
	}
	for _, l := range leaves[:n] {
		if dir.find(l.hi) != l {
			d.Failf("vm: space %d leaf %#x is out of directory order", si, l.hi)
			return d.Err()
		}
	}
	clear(leaves[:cap(leaves)])
	dir.spare = leaves[:0]
	return nil
}

// CopyFrom makes s a copy of src, leaving s exactly as restoring src's
// Snapshot would: the frame bitmap, allocator cursors and RNG, and every
// space's page table, directory cell for cell, with the leaf MRU
// cleared. It reuses s's leaf nodes, so once s holds as many leaves as
// src a copy allocates nothing. src must have the same frame count and
// number of spaces.
func (s *System) CopyFrom(src *System) error {
	if s.numFrames != src.numFrames || len(s.spaces) != len(src.spaces) {
		return fmt.Errorf("vm: cannot copy a %d-frame system with %d spaces into a %d-frame system with %d spaces",
			src.numFrames, len(src.spaces), s.numFrames, len(s.spaces))
	}
	s.usedCount, s.nextSeq = src.usedCount, src.nextSeq
	*s.rng = *src.rng
	copy(s.used, src.used)
	for i, sp := range s.spaces {
		from := src.spaces[i]
		sp.dir.copyFrom(from.dir)
		sp.mru = [mruWays]*ptLeaf{}
		sp.mapped = from.mapped
	}
	return nil
}
