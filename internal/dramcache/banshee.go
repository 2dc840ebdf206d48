package dramcache

import (
	"fmt"
	"math/bits"

	"accord/internal/ckpt"
	"accord/internal/dram"
	"accord/internal/memtypes"
)

// Banshee models the page-granularity DRAM cache of Yu, Hughes,
// Satish, Mutlu and Devadas (Banshee, MICRO 2017; PAPERS.md): the
// cache is managed in 4 KB pages whose locations are tracked through
// the page tables and TLBs rather than in-DRAM tags, so a hit needs
// no tag probe at all — the translation already names the cached
// frame, and the device streams a plain 64-byte line. Associativity
// is page-set-associative (bansheePageWays ways per page set), and
// replacement is frequency-based (FBR): every page set keeps
// frequency counters for its resident pages and for a small table of
// candidate (not-yet-cached) pages, and a miss replaces the coldest
// resident page only when the missing page's counter has climbed past
// it by a margin — otherwise the miss bypasses the cache entirely and
// is served from NVM without an install. That selective-install
// property is Banshee's bandwidth story, and it is the reason the
// nway-specific accounting identity "installs == misses" does not
// hold here.
//
// Resident pages fill lazily, line by line: mapping a page claims a frame
// but moves no data; each first touch of a line fills just that line.
// A per-line presence bitmap (LinesPerPage = 64 fits one uint64) plays
// the role of Banshee's per-page line bitvector.
type Banshee struct {
	deviceBase

	pageSets uint64 // page-set count (power of two)
	setMask  uint64
	setShift uint
	ways     int

	meta []bansheePage // pageSets * ways resident-page slots
	cand []bansheeCand // pageSets * bansheeCandWays candidate counters

	devMap dram.Mapper // cache line unit -> device row
}

// bansheePage is one resident page slot.
type bansheePage struct {
	tag     uint64 // page number >> setShift
	freq    uint32
	valid   bool
	present uint64 // per-line fill bitmap
	dirty   uint64 // per-line dirty bitmap (subset of present)
}

// bansheeCand is one candidate-table entry: a page that has missed here
// recently, with the access count deciding when it earns residency.
type bansheeCand struct {
	tag  uint64
	freq uint32
	live bool
}

const (
	// bansheePageWays is the page-set associativity (Banshee's sampled-FBR
	// evaluation uses 4-way page sets).
	bansheePageWays = 4
	// bansheeCandWays is the candidate-counter table size per page set.
	bansheeCandWays = 4
	// bansheeThreshold is the frequency margin a candidate must hold over
	// the coldest resident page before it replaces it; the margin
	// amortizes the page-remap cost over enough reuse to pay for it.
	bansheeThreshold = 2
	// bansheeFreqCap triggers aging: when any counter in a set reaches it,
	// every counter in the set (resident and candidate) is halved.
	bansheeFreqCap = 1 << 16
)

// NewBanshee builds a page-granularity cache of the given capacity.
// frames is the machine's physical frame count (the page-table layer the
// design stores its mapping in); it bounds nothing directly but is
// validated so a misconfigured system fails loudly.
func NewBanshee(capacityBytes int64, dev, nvm *dram.Device, frames uint64) (*Banshee, error) {
	sets, err := bansheeSets(capacityBytes, frames)
	if err != nil {
		return nil, err
	}
	return &Banshee{
		deviceBase: newDeviceBase(dev, nvm),
		pageSets:   sets,
		setMask:    sets - 1,
		setShift:   log2(sets),
		ways:       bansheePageWays,
		meta:       make([]bansheePage, sets*bansheePageWays),
		cand:       make([]bansheeCand, sets*bansheeCandWays),
		devMap:     dev.Config().NewMapper(dev.Config().RowBytes / memtypes.LineSize),
	}, nil
}

// bansheeSets checks a Banshee geometry and returns its page-set count.
func bansheeSets(capacityBytes int64, frames uint64) (uint64, error) {
	pages := capacityBytes / memtypes.PageSize
	switch {
	case capacityBytes%memtypes.PageSize != 0:
		return 0, fmt.Errorf("dramcache: banshee capacity %d not page-aligned", capacityBytes)
	case pages < bansheePageWays:
		return 0, fmt.Errorf("dramcache: banshee capacity %d below one page set", capacityBytes)
	case pages%bansheePageWays != 0:
		return 0, fmt.Errorf("dramcache: banshee capacity %d not divisible by page-set size", capacityBytes)
	case frames == 0:
		return 0, fmt.Errorf("dramcache: banshee needs a nonzero frame count")
	}
	sets := uint64(pages / bansheePageWays)
	if sets&(sets-1) != 0 {
		return 0, fmt.Errorf("dramcache: banshee %d page sets, must be a power of two", sets)
	}
	return sets, nil
}

// Name implements Interface.
func (c *Banshee) Name() string { return "banshee" }

// StorageBytes implements Interface: the page mappings and per-page
// counters live in page-table entries (and their TLB copies), so the only
// dedicated SRAM is the candidate-counter table: tag plus counter, 8
// bytes per entry.
func (c *Banshee) StorageBytes() int64 {
	return int64(c.pageSets) * bansheeCandWays * 8
}

func (c *Banshee) index(line memtypes.LineAddr) (set, tag, off uint64) {
	page := uint64(line.Page())
	return page & c.setMask, page >> c.setShift, line.PageOffset()
}

func (c *Banshee) slot(set uint64, way int) int { return int(set)*c.ways + way }

// lineOf reconstructs the line address of a resident page's line.
func (c *Banshee) lineOf(set, tag, off uint64) memtypes.LineAddr {
	page := memtypes.PageNum(tag<<c.setShift | set)
	return page.Line(off)
}

// loc maps a resident line (slot, page offset) to its device row. Data is
// stored as plain 64-byte lines — no in-DRAM tags is the point of the
// design.
func (c *Banshee) loc(set uint64, way int, off uint64) dram.Loc {
	unit := uint64(c.slot(set, way))*memtypes.LinesPerPage + off
	return c.devMap.Map(unit)
}

// findPage returns the way holding (set, tag), or -1.
func (c *Banshee) findPage(set, tag uint64) int {
	base := int(set) * c.ways
	ways := c.meta[base : base+c.ways]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return w
		}
	}
	return -1
}

// Contains implements Interface: resident means the page is mapped AND
// the specific line has been filled.
func (c *Banshee) Contains(line memtypes.LineAddr) (way int, ok bool) {
	set, tag, off := c.index(line)
	w := c.findPage(set, tag)
	if w < 0 || c.meta[c.slot(set, w)].present&(1<<off) == 0 {
		return 0, false
	}
	return w, true
}

// ageSet halves every counter in the set when any counter saturates,
// keeping the frequency ordering while letting stale heat decay.
func (c *Banshee) ageSet(set uint64) {
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		c.meta[base+w].freq >>= 1
	}
	cbase := int(set) * bansheeCandWays
	for i := 0; i < bansheeCandWays; i++ {
		c.cand[cbase+i].freq >>= 1
	}
}

// bumpResident counts one access to a resident page.
func (c *Banshee) bumpResident(set uint64, way int) {
	m := &c.meta[c.slot(set, way)]
	m.freq++
	if m.freq >= bansheeFreqCap {
		c.ageSet(set)
	}
}

// coldestResident returns the resident way with the lowest frequency
// (invalid slots count as frequency 0, ties to the lowest index).
func (c *Banshee) coldestResident(set uint64) (way int, freq uint32) {
	base := int(set) * c.ways
	way, freq = 0, bansheeFreqCap
	for w := 0; w < c.ways; w++ {
		m := &c.meta[base+w]
		f := m.freq
		if !m.valid {
			f = 0
		}
		if f < freq {
			way, freq = w, f
		}
	}
	return way, freq
}

// touchCandidate counts one access to a non-resident page and decides
// whether it has earned residency. It returns the victim way plus the
// candidate's counter when a remap is due. Invalid resident slots are
// claimed immediately (a cold cache should fill, not bypass).
func (c *Banshee) touchCandidate(set, tag uint64) (remap bool, victim int, inherit uint32) {
	cbase := int(set) * bansheeCandWays
	idx := -1
	for i := 0; i < bansheeCandWays; i++ {
		if e := &c.cand[cbase+i]; e.live && e.tag == tag {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Replace the coldest candidate entry (empty first, ties to the
		// lowest index) — the sampling approximation of full FBR counters.
		var minFreq uint32 = bansheeFreqCap
		for i := 0; i < bansheeCandWays; i++ {
			e := &c.cand[cbase+i]
			f := e.freq
			if !e.live {
				f = 0
			}
			if f < minFreq {
				idx, minFreq = i, f
			}
		}
		c.cand[cbase+idx] = bansheeCand{tag: tag, freq: 0, live: true}
	}
	e := &c.cand[cbase+idx]
	e.freq++
	if e.freq >= bansheeFreqCap {
		c.ageSet(set)
	}
	victim, victimFreq := c.coldestResident(set)
	vm := &c.meta[c.slot(set, victim)]
	if !vm.valid || e.freq > victimFreq+bansheeThreshold {
		inherit = e.freq
		*e = bansheeCand{}
		return true, victim, inherit
	}
	return false, victim, 0
}

// demoteToCandidate re-enters an evicted page into the candidate table if
// it is hotter than the coldest entry there.
func (c *Banshee) demoteToCandidate(set, tag uint64, freq uint32) {
	cbase := int(set) * bansheeCandWays
	idx := -1
	var minFreq uint32 = bansheeFreqCap
	for i := 0; i < bansheeCandWays; i++ {
		e := &c.cand[cbase+i]
		f := e.freq
		if !e.live {
			f = 0
		}
		if f < minFreq {
			idx, minFreq = i, f
		}
	}
	if idx >= 0 && freq > minFreq {
		c.cand[cbase+idx] = bansheeCand{tag: tag, freq: freq, live: true}
	}
}

// bansheeOutcome is what one Banshee transition did, for the timed path to
// charge.
type bansheeOutcome struct {
	way     int         // the page's way afterwards, -1 when the access bypassed the cache
	hit     bool        // the line was already filled
	evicted bansheePage // the page a remap replaced (zero otherwise)
}

// access is the state transition of a read or (write) a writeback. A
// resident page counts the access and fills the line lazily, marking it
// dirty on a writeback. A non-resident page goes through the candidate
// counters; when it has earned residency it replaces the coldest page,
// whose counter is demoted into the candidate table so an
// evicted-but-hot page can earn its way back. The new page starts with
// just this line present; mapping it is a PTE write, off the memory path.
func (c *Banshee) access(set, tag, off uint64, write bool) bansheeOutcome {
	bit := uint64(1) << off
	var dirty uint64
	if write {
		dirty = bit
	}
	if w := c.findPage(set, tag); w >= 0 {
		c.bumpResident(set, w)
		m := &c.meta[c.slot(set, w)]
		a := bansheeOutcome{way: w, hit: m.present&bit != 0}
		m.present |= bit
		m.dirty |= dirty
		return a
	}
	remap, victim, inherit := c.touchCandidate(set, tag)
	if !remap {
		return bansheeOutcome{way: -1}
	}
	m := &c.meta[c.slot(set, victim)]
	a := bansheeOutcome{way: victim, evicted: *m}
	if m.valid {
		c.demoteToCandidate(set, m.tag, m.freq)
	}
	*m = bansheePage{tag: tag, freq: inherit, valid: true, present: bit, dirty: dirty}
	return a
}

// evictTraffic writes the evicted page's dirty lines back to NVM, each
// after a device read (the data lives only in the cache).
func (c *Banshee) evictTraffic(at int64, set uint64, a bansheeOutcome) {
	if !a.evicted.valid {
		return
	}
	for d := a.evicted.dirty; d != 0; d &= d - 1 {
		off := uint64(bits.TrailingZeros64(d))
		c.stats.VictimReads++
		rd := c.dev.Access(at, c.loc(set, a.way, off), memtypes.Read, memtypes.LineSize).DataAt
		c.nvmWrite(rd, c.lineOf(set, a.evicted.tag, off))
	}
}

// AccessReadFunctional implements Interface.
func (c *Banshee) AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool) {
	set, tag, off := c.index(line)
	a := c.access(set, tag, off, false)
	return uint8(max(a.way, 0)), a.hit
}

// WritebackFunctional implements Interface.
func (c *Banshee) WritebackFunctional(line memtypes.LineAddr) {
	set, tag, off := c.index(line)
	c.access(set, tag, off, true)
}

// AccessRead implements Interface. Hits pay exactly one 64-byte data
// read — the translation layer already knows the frame and the way, so
// every hit is a correct "prediction" by construction. Misses are served
// from NVM and install only when the page has earned residency.
func (c *Banshee) AccessRead(at int64, line memtypes.LineAddr) ReadResult {
	set, tag, off := c.index(line)
	c.stats.Reads++
	a := c.access(set, tag, off, false)
	if a.hit {
		// Mapped line: one plain data read, no tag probe.
		c.stats.ReadHits++
		c.stats.Predictions++
		c.stats.Correct++
		c.stats.ProbeReads++
		done := c.dev.Access(at, c.loc(set, a.way, off), memtypes.Read, memtypes.LineSize).DataAt
		c.stats.HitLatency.add(done - at)
		return ReadResult{Done: done, Hit: true, Way: uint8(a.way), FirstProbeHit: true}
	}
	// A miss is known immediately (no probes — the translation says so).
	// The line is filled into its mapped page, lazily, or into the page
	// the access just remapped; an unmapped page bypasses the cache.
	done := c.nvmRead(at, line)
	c.evictTraffic(at, set, a)
	if a.way >= 0 {
		c.stats.InstallWrites++
		c.dev.Access(at, c.loc(set, a.way, off), memtypes.Write, memtypes.LineSize)
	}
	c.stats.MissLatency.add(done - at)
	return ReadResult{Done: done, Hit: false, Way: uint8(max(a.way, 0))}
}

// Writeback implements Interface. Dirty L3 evictions of mapped lines
// update the line in place; evictions into a mapped page allocate the
// line (write-allocate, no NVM read — the L3 holds the whole line);
// evictions of unmapped pages follow the same earn-residency rule as
// reads, bypassing straight to NVM until the page is hot enough.
func (c *Banshee) Writeback(at int64, line memtypes.LineAddr) int64 {
	set, tag, off := c.index(line)
	c.stats.Writebacks++
	a := c.access(set, tag, off, true)
	switch {
	case a.hit:
		return c.writebackHit(at, c.loc(set, a.way, off), memtypes.LineSize)
	case a.way < 0:
		c.nvmWrite(at, line)
		return at
	}
	c.evictTraffic(at, set, a)
	c.stats.InstallWrites++
	return c.dev.Access(at, c.loc(set, a.way, off), memtypes.Write, memtypes.LineSize).DataAt
}

// CheckInvariants implements Interface.
func (c *Banshee) CheckInvariants() error {
	for set := uint64(0); set < c.pageSets; set++ {
		base := int(set) * c.ways
		for w := 0; w < c.ways; w++ {
			m := &c.meta[base+w]
			if !m.valid {
				if m.present != 0 || m.dirty != 0 || m.freq != 0 || m.tag != 0 {
					return fmt.Errorf("banshee: invalid slot (set %d way %d) holds state", set, w)
				}
				continue
			}
			if m.dirty&^m.present != 0 {
				return fmt.Errorf("banshee: dirty lines not present in set %d way %d", set, w)
			}
			if m.freq >= bansheeFreqCap {
				return fmt.Errorf("banshee: unaged counter %d in set %d way %d", m.freq, set, w)
			}
			for w2 := w + 1; w2 < c.ways; w2++ {
				if m2 := &c.meta[base+w2]; m2.valid && m2.tag == m.tag {
					return fmt.Errorf("banshee: duplicate page tag %#x in set %d", m.tag, set)
				}
			}
		}
		cbase := int(set) * bansheeCandWays
		for i := 0; i < bansheeCandWays; i++ {
			e := &c.cand[cbase+i]
			if !e.live {
				if e.tag != 0 || e.freq != 0 {
					return fmt.Errorf("banshee: dead candidate %d in set %d holds state", i, set)
				}
				continue
			}
			if e.freq >= bansheeFreqCap {
				return fmt.Errorf("banshee: unaged candidate counter %d in set %d", e.freq, set)
			}
			if w := c.findPage(set, e.tag); w >= 0 {
				return fmt.Errorf("banshee: candidate %#x in set %d is already resident", e.tag, set)
			}
		}
	}
	return nil
}

// bansheeVersion is the snapshot encoding version.
const bansheeVersion = 1

// Snapshot implements Interface.
func (c *Banshee) Snapshot(e *ckpt.Encoder) error {
	e.U8(bansheeVersion)
	e.U64(c.pageSets)
	for _, m := range c.meta {
		e.U64(m.tag)
		e.U32(m.freq)
		e.Bool(m.valid)
		e.U64(m.present)
		e.U64(m.dirty)
	}
	for _, cd := range c.cand {
		e.U64(cd.tag)
		e.U32(cd.freq)
		e.Bool(cd.live)
	}
	snapshotStats(e, &c.stats)
	return nil
}

// Restore implements Interface.
func (c *Banshee) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != bansheeVersion {
		d.Failf("banshee: snapshot version %d, want %d", v, bansheeVersion)
	}
	if sets := d.U64(); d.Err() == nil && sets != c.pageSets {
		d.Failf("banshee: snapshot has %d page sets, cache has %d", sets, c.pageSets)
	}
	if err := d.Err(); err != nil {
		return err
	}
	for i := range c.meta {
		m := bansheePage{
			tag:     d.U64(),
			freq:    d.U32(),
			valid:   d.Bool(),
			present: d.U64(),
			dirty:   d.U64(),
		}
		if d.Err() != nil {
			return d.Err()
		}
		if !m.valid && (m.present != 0 || m.dirty != 0 || m.freq != 0 || m.tag != 0) {
			d.Failf("banshee: meta[%d] invalid but holds state", i)
			return d.Err()
		}
		if m.dirty&^m.present != 0 {
			d.Failf("banshee: meta[%d] dirty lines not present", i)
			return d.Err()
		}
		c.meta[i] = m
	}
	for i := range c.cand {
		cd := bansheeCand{tag: d.U64(), freq: d.U32(), live: d.Bool()}
		if d.Err() != nil {
			return d.Err()
		}
		if !cd.live && (cd.tag != 0 || cd.freq != 0) {
			d.Failf("banshee: cand[%d] dead but holds state", i)
			return d.Err()
		}
		c.cand[i] = cd
	}
	restoreStats(d, &c.stats)
	return d.Err()
}

var _ Interface = (*Banshee)(nil)

func init() {
	Register(Backend{
		Name: "banshee",
		Check: func(cfg BackendConfig, frames uint64) error {
			_, err := bansheeSets(cfg.CapacityBytes, frames)
			return err
		},
		New: func(cfg BackendConfig, deps Deps) (Interface, error) {
			b, err := NewBanshee(cfg.CapacityBytes, deps.Dev, deps.NVM, deps.Frames)
			if err != nil {
				return nil, err
			}
			return b, nil
		},
	})
}
