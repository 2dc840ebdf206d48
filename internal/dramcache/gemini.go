package dramcache

import (
	"fmt"

	"accord/internal/ckpt"
	"accord/internal/dram"
	"accord/internal/memtypes"
	"accord/internal/metrics"
)

// Gemini models the hybrid set/way mapping design of the Gemini DRAM
// cache (PAPERS.md): a 4-way set-associative tags-with-data cache whose
// way placement is itself address-mapped. Each line has a home way
// derived from its tag bits; installs prefer the home way (falling back
// to the first free way in a fixed XOR probe order), so on a lookup the
// home way is overwhelmingly likely to hold the line and is probed first
// — way prediction by construction, with zero SRAM and no training.
// Mispredicted hits burst the remaining ways of the set (all co-located
// in one row, so the extra probes are row hits); misses confirm the same
// way, overlapping the NVM fill exactly like the nway organization.
//
// Unlike the CA-cache, a slow hit triggers no swap: the hybrid mapping is
// static, so there is no "fast slot" to promote into and no swap
// bandwidth tax — the property that distinguishes the design.
type Gemini struct {
	dev *dram.Device
	nvm *dram.Device

	sets     uint64
	setMask  uint64
	setShift uint

	meta    []wayMeta // sets * geminiWays
	touched wayMeta   // keeps touchSets' loads live; not state (see Cache)

	devMap dram.Mapper // set -> device row
	nvmMap dram.Mapper // line -> NVM row

	stats Stats
}

// geminiWays is the fixed associativity; the XOR probe order below needs
// a power of two.
const geminiWays = 4

// NewGemini builds the hybrid-mapped cache.
func NewGemini(capacityBytes int64, dev, nvm *dram.Device) (*Gemini, error) {
	cfg := Config{CapacityBytes: capacityBytes, Ways: geminiWays}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := uint64(capacityBytes / (geminiWays * memtypes.LineSize))
	setBytes := geminiWays * memtypes.TagUnitSize
	upr := dev.Config().RowBytes / setBytes
	if upr < 1 {
		upr = 1
	}
	nvmUPR := nvm.Config().RowBytes / memtypes.LineSize
	if nvmUPR < 1 {
		nvmUPR = 1
	}
	return &Gemini{
		dev:      dev,
		nvm:      nvm,
		sets:     sets,
		setMask:  sets - 1,
		setShift: log2(sets),
		meta:     make([]wayMeta, sets*geminiWays),
		devMap:   dev.Config().NewMapper(upr),
		nvmMap:   nvm.Config().NewMapper(nvmUPR),
	}, nil
}

// Name implements Interface.
func (c *Gemini) Name() string { return "gemini" }

// Stats implements Interface.
func (c *Gemini) Stats() *Stats { return &c.stats }

// ResetStats implements Interface.
func (c *Gemini) ResetStats() { c.stats = Stats{} }

// StorageBytes implements Interface: the mapping is pure address
// arithmetic, so the design needs no SRAM metadata at all.
func (c *Gemini) StorageBytes() int64 { return 0 }

// RegisterMetrics implements Interface.
func (c *Gemini) RegisterMetrics(r *metrics.Registry, prefix string) {
	c.stats.Register(r, prefix)
}

func (c *Gemini) index(line memtypes.LineAddr) (set, tag uint64) {
	return uint64(line) & c.setMask, uint64(line) >> c.setShift
}

// homeWay is the hybrid mapping: the way a line's address steers it to.
func (c *Gemini) homeWay(tag uint64) int { return int(tag & (geminiWays - 1)) }

// probeOrder writes the fixed XOR probe sequence starting at the home way
// into buf (home, home^1, home^2, home^3): deterministic, and every way
// of the set appears exactly once.
func (c *Gemini) probeOrder(tag uint64, buf *[geminiWays]int) {
	home := c.homeWay(tag)
	for i := 0; i < geminiWays; i++ {
		buf[i] = home ^ i
	}
}

func (c *Gemini) slot(set uint64, way int) int { return int(set)*geminiWays + way }

func (c *Gemini) lineOf(set, tag uint64) memtypes.LineAddr {
	return memtypes.LineAddr(tag<<c.setShift | set)
}

func (c *Gemini) findWay(set, tag uint64) int {
	base := int(set) * geminiWays
	return matchWay(c.meta[base:base+geminiWays], tag)
}

// Contains implements Interface.
func (c *Gemini) Contains(line memtypes.LineAddr) (way int, ok bool) {
	set, tag := c.index(line)
	w := c.findWay(set, tag)
	return w, w >= 0
}

func (c *Gemini) loc(set uint64) dram.Loc { return c.devMap.Map(set) }

func (c *Gemini) nvmLoc(line memtypes.LineAddr) dram.Loc {
	return c.nvmMap.Map(uint64(line))
}

func (c *Gemini) probeRead(at int64, loc dram.Loc) int64 {
	c.stats.ProbeReads++
	return c.dev.Access(at, loc, memtypes.Read, memtypes.TagUnitSize).DataAt
}

// AccessRead implements Interface.
func (c *Gemini) AccessRead(at int64, line memtypes.LineAddr) ReadResult {
	set, tag := c.index(line)
	loc := c.devMap.Map(set)
	actual := c.findWay(set, tag)
	hit := actual >= 0
	c.stats.Reads++

	var order [geminiWays]int
	c.probeOrder(tag, &order)
	home := order[0]

	// The home-way probe is the implicit prediction.
	first := c.probeRead(at, loc)
	if hit {
		c.stats.Predictions++
		if actual == home {
			c.stats.Correct++
			c.stats.ReadHits++
			c.stats.HitLatency.add(first - at)
			return ReadResult{Done: first, Hit: true, Way: uint8(actual), FirstProbeHit: true}
		}
		// Mispredicted hit: burst the remaining ways; the line's data
		// arrives with its own probe.
		done := first
		for _, w := range order[1:] {
			t := c.probeRead(first, loc)
			if w == actual {
				done = t
			}
		}
		c.stats.ReadHits++
		c.stats.HitLatency.add(done - at)
		return ReadResult{Done: done, Hit: true, Way: uint8(actual), FirstProbeHit: false}
	}

	// Miss: the fill launches after the first probe; the remaining probes
	// confirm the miss in the background (they also stream every potential
	// victim, so the install needs no extra victim read).
	confirmedAt := first
	for range order[1:] {
		if t := c.probeRead(first, loc); t > confirmedAt {
			confirmedAt = t
		}
	}
	c.stats.NVMReads++
	nvmDone := c.nvm.Access(first, c.nvmLoc(line), memtypes.Read, memtypes.LineSize).DataAt
	way := c.install(first, loc, set, tag, false, true)
	if nvmDone < confirmedAt {
		nvmDone = confirmedAt
	}
	c.stats.MissLatency.add(nvmDone - at)
	return ReadResult{Done: nvmDone, Hit: false, Way: uint8(way)}
}

// installWayFor picks the install way: the first free way in probe order,
// else the home way (static placement — evicting the home occupant keeps
// the mapping self-correcting).
func (c *Gemini) installWayFor(set, tag uint64) int {
	var order [geminiWays]int
	c.probeOrder(tag, &order)
	for _, w := range order {
		if !c.meta[c.slot(set, w)].valid() {
			return w
		}
	}
	return order[0]
}

// install places (set, tag), evicting any dirty victim to NVM.
func (c *Gemini) install(at int64, loc dram.Loc, set, tag uint64, dirty, victimProbed bool) int {
	way := c.installWayFor(set, tag)
	s := c.slot(set, way)
	if !victimProbed {
		c.stats.VictimReads++
		at = c.dev.Access(at, loc, memtypes.Read, memtypes.TagUnitSize).DataAt
	}
	m := &c.meta[s]
	if m.valid() && m.dirty() {
		victim := c.lineOf(set, m.tag())
		c.stats.NVMWrites++
		c.nvm.Access(at, c.nvmLoc(victim), memtypes.Write, memtypes.LineSize)
	}
	*m = residentMeta(tag, dirty)
	c.stats.InstallWrites++
	c.dev.Access(at, loc, memtypes.Write, memtypes.TagUnitSize)
	return way
}

// Writeback implements Interface (DCP+way bits make resident updates
// probe-free, exactly as in the nway organization).
func (c *Gemini) Writeback(at int64, line memtypes.LineAddr) int64 {
	set, tag := c.index(line)
	loc := c.devMap.Map(set)
	c.stats.Writebacks++
	if way := c.findWay(set, tag); way >= 0 {
		c.stats.WritebackHits++
		c.meta[c.slot(set, way)] |= metaDirty
		c.stats.WritebackWrites++
		return c.dev.Access(at, loc, memtypes.Write, memtypes.TagUnitSize).DataAt
	}
	c.install(at, loc, set, tag, true, false)
	return at
}

// AccessReadFunctional implements the state-only read path.
func (c *Gemini) AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool) {
	set, tag := c.index(line)
	if actual := c.findWay(set, tag); actual >= 0 {
		return uint8(actual), true
	}
	return uint8(c.installFunctional(set, tag, false)), false
}

// installFunctional is install without device traffic.
func (c *Gemini) installFunctional(set, tag uint64, dirty bool) int {
	way := c.installWayFor(set, tag)
	c.meta[c.slot(set, way)] = residentMeta(tag, dirty)
	return way
}

// WritebackFunctional implements the state-only writeback path.
func (c *Gemini) WritebackFunctional(line memtypes.LineAddr) {
	set, tag := c.index(line)
	if way := c.findWay(set, tag); way >= 0 {
		c.meta[c.slot(set, way)] |= metaDirty
		return
	}
	c.installFunctional(set, tag, true)
}

// CheckInvariants implements Interface.
func (c *Gemini) CheckInvariants() error {
	for set := uint64(0); set < c.sets; set++ {
		base := int(set) * geminiWays
		for w := 0; w < geminiWays; w++ {
			m := c.meta[base+w]
			if !m.valid() {
				continue
			}
			if matchWay(c.meta[base+w+1:base+geminiWays], m.tag()) >= 0 {
				return fmt.Errorf("gemini: duplicate tag %#x in set %d", m.tag(), set)
			}
		}
	}
	return nil
}

// geminiVersion is the snapshot encoding version.
const geminiVersion = 1

// Snapshot implements Interface.
func (c *Gemini) Snapshot(e *ckpt.Encoder) error {
	e.U8(geminiVersion)
	e.U64(c.sets)
	snapshotMeta(e, c.meta)
	snapshotStats(e, &c.stats)
	return nil
}

// Restore implements Interface.
func (c *Gemini) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != geminiVersion {
		d.Failf("gemini: snapshot version %d, want %d", v, geminiVersion)
	}
	if sets := d.U64(); d.Err() == nil && sets != c.sets {
		d.Failf("gemini: snapshot has %d sets, cache has %d", sets, c.sets)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := restoreMeta(d, c.meta, "gemini"); err != nil {
		return err
	}
	restoreStats(d, &c.stats)
	return d.Err()
}

var _ Interface = (*Gemini)(nil)

func init() {
	Register(Backend{
		Name: "gemini",
		New: func(cfg BackendConfig, deps Deps) (Interface, error) {
			g, err := NewGemini(cfg.CapacityBytes, deps.Dev, deps.NVM)
			if err != nil {
				return nil, err
			}
			return g, nil
		},
	})
}
