package vm

import "accord/internal/memtypes"

// The page table is a demand-grown two-level radix structure instead of a
// Go map: workload generators place each component in a disjoint virtual
// arena ((i+1)<<36 byte bases), so virtual page numbers cluster in a
// handful of dense ranges. Level 2 ("leaf") is a dense array covering
// leafPages consecutive pages; level 1 is a small open-addressed directory
// from the high VPN bits to a leaf. A tiny per-space MRU cache of
// recently used leaves removes the directory probe from nearly every
// translation, leaving an add, a mask, and one indexed load on the hot
// path.
//
// Frame values are stored +1 so the zero value means "unmapped"; frame 0
// stays representable. First-touch allocation order is exactly the map
// version's (one allocFrame call per newly touched page, in access
// order), so the system RNG draw sequence — and therefore every simulated
// result — is bit-identical.
const (
	leafBits  = 9 // pages per leaf: 512 (2 MB of VA, a 4 KB leaf node)
	leafPages = 1 << leafBits
	leafMask  = leafPages - 1

	// mruWays is the size of the per-space leaf MRU cache. Two entries
	// cover the common "stream + random arena" interleave of the workload
	// generators.
	mruWays = 2
)

// ptLeaf is one level-2 node: frame+1 per page, 0 = unmapped.
type ptLeaf struct {
	hi     uint64 // VPN >> leafBits
	frames [leafPages]uint64
}

// ptDir is the level-1 directory: an open-addressed linear-probe table
// from hi to a leaf. It only ever grows (pages are never unmapped), so
// deletion is unnecessary and probe chains stay short under the 50% max
// load factor.
type ptDir struct {
	leaves []*ptLeaf // probe table, nil = empty
	mask   uint64
	used   int

	// spare is copyFrom's scratch list of reusable leaf nodes, sized by
	// the first copy so later ones allocate nothing. It holds no leaves
	// between calls.
	spare []*ptLeaf
}

func newPTDir() *ptDir {
	return &ptDir{leaves: make([]*ptLeaf, 8), mask: 7}
}

// hashHi spreads the high VPN bits with a Fibonacci multiplier; arena
// bases differ only in bits far above leafBits, which a masked identity
// hash would collapse.
func hashHi(hi uint64) uint64 {
	return hi * 0x9e3779b97f4a7c15
}

// find returns the leaf covering hi, or nil.
func (d *ptDir) find(hi uint64) *ptLeaf {
	i := hashHi(hi) & d.mask
	for {
		l := d.leaves[i]
		if l == nil {
			return nil
		}
		if l.hi == hi {
			return l
		}
		i = (i + 1) & d.mask
	}
}

// insert adds a leaf for hi (which must not be present), growing the
// probe table when it passes half full.
func (d *ptDir) insert(l *ptLeaf) {
	if 2*(d.used+1) > len(d.leaves) {
		d.grow()
	}
	i := hashHi(l.hi) & d.mask
	for d.leaves[i] != nil {
		i = (i + 1) & d.mask
	}
	d.leaves[i] = l
	d.used++
}

func (d *ptDir) grow() {
	old := d.leaves
	d.leaves = make([]*ptLeaf, 2*len(old))
	d.mask = uint64(len(d.leaves) - 1)
	for _, l := range old {
		if l == nil {
			continue
		}
		i := hashHi(l.hi) & d.mask
		for d.leaves[i] != nil {
			i = (i + 1) & d.mask
		}
		d.leaves[i] = l
	}
}

// copyFrom makes d a cell-for-cell copy of src: the same table size and
// every leaf in the same cell with the same frames. It reuses d's leaf
// nodes, whatever pages they covered, and allocates only when src has
// more leaves than d (or a differently sized table).
func (d *ptDir) copyFrom(src *ptDir) {
	spare := d.ownLeaves()
	if len(d.leaves) != len(src.leaves) {
		d.leaves = make([]*ptLeaf, len(src.leaves))
	}
	for i, l := range src.leaves {
		if l == nil {
			d.leaves[i] = nil
			continue
		}
		var dl *ptLeaf
		if n := len(spare); n > 0 {
			dl, spare = spare[n-1], spare[:n-1]
		} else {
			dl = new(ptLeaf)
		}
		*dl = *l
		d.leaves[i] = dl
	}
	d.mask, d.used = src.mask, src.used
	clear(spare[:cap(spare)])
	if cap(spare) < d.used {
		spare = make([]*ptLeaf, 0, d.used)
	}
	d.spare = spare[:0]
}

// ownLeaves returns d's leaf nodes, in the storage of its spare list,
// for a rebuild of d to reuse.
func (d *ptDir) ownLeaves() []*ptLeaf {
	nodes := d.spare[:0]
	for _, l := range d.leaves {
		if l != nil {
			nodes = append(nodes, l)
		}
	}
	return nodes
}

// leafSlow returns the leaf covering hi when the way-0 MRU check missed,
// consulting the remaining MRU ways and then the directory (creating the
// leaf on demand), and promotes the result to MRU way 0. Kept out of the
// inlined fast path on purpose.
//
//go:noinline
func (sp *Space) leafSlow(hi uint64) *ptLeaf {
	for w := 1; w < mruWays; w++ {
		if l := sp.mru[w]; l != nil && l.hi == hi {
			copy(sp.mru[1:w+1], sp.mru[:w])
			sp.mru[0] = l
			return l
		}
	}
	l := sp.dir.find(hi)
	if l == nil {
		l = &ptLeaf{hi: hi}
		sp.dir.insert(l)
	}
	copy(sp.mru[1:], sp.mru[:mruWays-1])
	sp.mru[0] = l
	return l
}

// translatePage maps a virtual page to its frame, allocating on first
// touch. This is the per-event hot path: an MRU way-0 hit costs one
// compare plus one indexed load, with no call.
func (sp *Space) translatePage(vp memtypes.PageNum) memtypes.PageNum {
	hi := uint64(vp) >> leafBits
	leaf := sp.mru[0]
	if leaf == nil || leaf.hi != hi {
		leaf = sp.leafSlow(hi)
	}
	slot := &leaf.frames[uint64(vp)&leafMask]
	if f := *slot; f != 0 {
		return memtypes.PageNum(f - 1)
	}
	frame := sp.sys.allocFrame()
	*slot = uint64(frame) + 1
	sp.mapped++
	return frame
}
