package dramcache

import (
	"accord/internal/ckpt"
	"accord/internal/dram"
	"accord/internal/memtypes"
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
	tagStore
}

// geminiWays is the fixed associativity; the XOR probe order below needs
// a power of two.
const geminiWays = 4

// checkGemini reports why capacityBytes gives no geminiWays-way geometry.
func checkGemini(capacityBytes int64) error {
	return Config{CapacityBytes: capacityBytes, Ways: geminiWays}.Validate()
}

// NewGemini builds the hybrid-mapped cache.
func NewGemini(capacityBytes int64, dev, nvm *dram.Device) (*Gemini, error) {
	if err := checkGemini(capacityBytes); err != nil {
		return nil, err
	}
	return &Gemini{newTagStore(capacityBytes, geminiWays, memtypes.TagUnitSize, dev, nvm)}, nil
}

// Name implements Interface.
func (c *Gemini) Name() string { return "gemini" }

// StorageBytes implements Interface: the mapping is pure address
// arithmetic, so the design needs no SRAM metadata at all.
func (c *Gemini) StorageBytes() int64 { return 0 }

// homeWay is the hybrid mapping: the way a line's address steers it to.
// The fixed XOR probe sequence starts there (home, home^1, home^2,
// home^3): deterministic, and every way of the set appears exactly once.
func homeWay(tag uint64) int { return int(tag & (geminiWays - 1)) }

// access is the state transition of a read or a writeback. A miss
// installs in the first free way in probe order, else the home way
// (static placement: evicting the home occupant keeps the mapping
// self-correcting). A hit changes nothing but a writeback's dirty bit.
func (c *Gemini) access(set, tag uint64, write bool) outcome {
	a := outcome{hit: c.findWay(set, tag)}
	if a.hit >= 0 {
		a.way = a.hit
		if write {
			c.meta[c.slot(set, a.hit)] |= metaDirty
		}
		return a
	}
	home := homeWay(tag)
	a.way = home
	for i := 0; i < geminiWays; i++ {
		if !c.meta[c.slot(set, home^i)].valid() {
			a.way = home ^ i
			break
		}
	}
	a.replaced = c.fill(set, tag, a.way, write)
	return a
}

// AccessReadFunctional implements Interface.
func (c *Gemini) AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool) {
	set, tag := c.index(line)
	a := c.access(set, tag, false)
	return uint8(a.way), a.hit >= 0
}

// WritebackFunctional implements Interface.
func (c *Gemini) WritebackFunctional(line memtypes.LineAddr) {
	set, tag := c.index(line)
	c.access(set, tag, true)
}

// AccessRead implements Interface.
func (c *Gemini) AccessRead(at int64, line memtypes.LineAddr) ReadResult {
	set, tag := c.index(line)
	loc := c.devMap.Map(set)
	a := c.access(set, tag, false)
	c.stats.Reads++
	home := homeWay(tag)

	// The home-way probe is the implicit prediction.
	first := c.probeRead(at, loc)
	if a.hit >= 0 {
		c.stats.Predictions++
		c.stats.ReadHits++
		if a.hit == home {
			c.stats.Correct++
			c.stats.HitLatency.add(first - at)
			return ReadResult{Done: first, Hit: true, Way: uint8(a.hit), FirstProbeHit: true}
		}
		// Mispredicted hit: burst the remaining ways; the line's data
		// arrives with its own probe.
		done := first
		for i := 1; i < geminiWays; i++ {
			if t := c.probeRead(first, loc); home^i == a.hit {
				done = t
			}
		}
		c.stats.HitLatency.add(done - at)
		return ReadResult{Done: done, Hit: true, Way: uint8(a.hit), FirstProbeHit: false}
	}

	// Miss: the fill launches after the first probe; the remaining probes
	// confirm the miss in the background (they also stream every potential
	// victim, so the install needs no extra victim read).
	confirmedAt := first
	for i := 1; i < geminiWays; i++ {
		if t := c.probeRead(first, loc); t > confirmedAt {
			confirmedAt = t
		}
	}
	nvmDone := c.nvmRead(first, line)
	c.installTraffic(first, loc, set, a.replaced, true)
	if nvmDone < confirmedAt {
		nvmDone = confirmedAt
	}
	c.stats.MissLatency.add(nvmDone - at)
	return ReadResult{Done: nvmDone, Hit: false, Way: uint8(a.way)}
}

// Writeback implements Interface (DCP+way bits make resident updates
// probe-free, exactly as in the nway organization).
func (c *Gemini) Writeback(at int64, line memtypes.LineAddr) int64 {
	set, tag := c.index(line)
	loc := c.devMap.Map(set)
	c.stats.Writebacks++
	a := c.access(set, tag, true)
	if a.hit >= 0 {
		return c.writebackHit(at, loc, memtypes.TagUnitSize)
	}
	c.installTraffic(at, loc, set, a.replaced, false)
	return at
}

// CheckInvariants implements Interface.
func (c *Gemini) CheckInvariants() error { return c.checkTags("gemini") }

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
		Name:  "gemini",
		Check: func(cfg BackendConfig, _ uint64) error { return checkGemini(cfg.CapacityBytes) },
		New: func(cfg BackendConfig, deps Deps) (Interface, error) {
			g, err := NewGemini(cfg.CapacityBytes, deps.Dev, deps.NVM)
			if err != nil {
				return nil, err
			}
			return g, nil
		},
	})
}
