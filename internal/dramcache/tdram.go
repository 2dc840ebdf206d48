package dramcache

import (
	"fmt"

	"accord/internal/ckpt"
	"accord/internal/dram"
	"accord/internal/memtypes"
	"accord/internal/metrics"
)

// TDRAM models the tag-enhanced DRAM organization of Babaie et al.
// (TDRAM, PAPERS.md): the DRAM die carries dedicated tag mats that are
// read concurrently with the data mats and compared on-die, so a hit is
// a single plain 64-byte data access — no separate tag probe, no
// oversized tags-with-data unit — and a miss is signaled early by the
// tag compare, before the data burst would complete. The on-die compare
// covers every way of the set at once, so misses need no confirmation
// probes either: the tags are authoritative.
//
// The data mats can only burst one way per access, so the device must
// still guess which way to stream. TDRAM keeps a per-set MRU hint (in
// the tag mats, zero SRAM): a correct guess is a one-access hit; a wrong
// guess pays one extra data access after the on-die compare names the
// resident way. Installs write tag and data in the same access — the
// flush-reduction property of the design.
type TDRAM struct {
	dev *dram.Device
	nvm *dram.Device

	sets     uint64
	setMask  uint64
	setShift uint
	ways     int

	meta []wayMeta
	mru  []uint8 // per-set most-recently-used way (the burst guess)
	rr   []uint8 // per-set round-robin victim cursor

	devMap dram.Mapper // set -> device row
	nvmMap dram.Mapper // line -> NVM row

	// tagEarly is how many cycles before data-burst completion the on-die
	// tag compare resolves: the access-time delta between a full line and
	// a tag-sized beat, precomputed from the device timing.
	tagEarly int64

	stats Stats
}

// tdramTagBytes sizes the early tag readout used to precompute tagEarly.
const tdramTagBytes = 8

// NewTDRAM builds a tag-enhanced cache with the given associativity.
func NewTDRAM(capacityBytes int64, ways int, dev, nvm *dram.Device) (*TDRAM, error) {
	cfg := Config{CapacityBytes: capacityBytes, Ways: ways}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ways > 256 {
		return nil, fmt.Errorf("dramcache: tdram ways %d exceed the uint8 MRU hint", ways)
	}
	sets := uint64(capacityBytes / (int64(ways) * memtypes.LineSize))
	// Sets map at line granularity: tags live in separate mats, so a row
	// holds plain 64-byte lines (the organization's density advantage over
	// tags-with-data). One set's ways stay co-located per row where they
	// fit.
	setBytes := ways * memtypes.LineSize
	upr := dev.Config().RowBytes / setBytes
	if upr < 1 {
		upr = 1
	}
	nvmUPR := nvm.Config().RowBytes / memtypes.LineSize
	if nvmUPR < 1 {
		nvmUPR = 1
	}
	early := dev.UnloadedReadLatency(memtypes.LineSize) - dev.UnloadedReadLatency(tdramTagBytes)
	if early < 0 {
		early = 0
	}
	return &TDRAM{
		dev:      dev,
		nvm:      nvm,
		sets:     sets,
		setMask:  sets - 1,
		setShift: log2(sets),
		ways:     ways,
		meta:     make([]wayMeta, sets*uint64(ways)),
		mru:      make([]uint8, sets),
		rr:       make([]uint8, sets),
		devMap:   dev.Config().NewMapper(upr),
		nvmMap:   nvm.Config().NewMapper(nvmUPR),
		tagEarly: early,
	}, nil
}

// Name implements Interface.
func (c *TDRAM) Name() string { return fmt.Sprintf("tdram-%dway", c.ways) }

// Stats implements Interface.
func (c *TDRAM) Stats() *Stats { return &c.stats }

// ResetStats implements Interface.
func (c *TDRAM) ResetStats() { c.stats = Stats{} }

// StorageBytes implements Interface: tags, MRU hints, and replacement
// state all live in the DRAM tag mats, so no SRAM is needed.
func (c *TDRAM) StorageBytes() int64 { return 0 }

// RegisterMetrics implements Interface.
func (c *TDRAM) RegisterMetrics(r *metrics.Registry, prefix string) {
	c.stats.Register(r, prefix)
}

func (c *TDRAM) index(line memtypes.LineAddr) (set, tag uint64) {
	return uint64(line) & c.setMask, uint64(line) >> c.setShift
}

func (c *TDRAM) slot(set uint64, way int) int { return int(set)*c.ways + way }

func (c *TDRAM) lineOf(set, tag uint64) memtypes.LineAddr {
	return memtypes.LineAddr(tag<<c.setShift | set)
}

func (c *TDRAM) findWay(set, tag uint64) int {
	base := int(set) * c.ways
	return matchWay(c.meta[base:base+c.ways], tag)
}

// Contains implements Interface.
func (c *TDRAM) Contains(line memtypes.LineAddr) (way int, ok bool) {
	set, tag := c.index(line)
	w := c.findWay(set, tag)
	return w, w >= 0
}

func (c *TDRAM) loc(set uint64) dram.Loc { return c.devMap.Map(set) }

func (c *TDRAM) nvmLoc(line memtypes.LineAddr) dram.Loc {
	return c.nvmMap.Map(uint64(line))
}

// victimWay picks the install victim: the first invalid way, else the
// round-robin cursor (skipping the MRU way when associativity allows, so
// the burst guess is never the line just about to be evicted).
func (c *TDRAM) victimWay(set uint64) int {
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		if !c.meta[base+w].valid() {
			return w
		}
	}
	w := int(c.rr[set])
	if c.ways > 1 && w == int(c.mru[set]) {
		w = (w + 1) % c.ways
	}
	c.rr[set] = uint8((w + 1) % c.ways)
	return w
}

// AccessRead implements Interface. Every access streams one 64-byte line
// (the MRU guess); the concurrent tag-mat read resolves hit/miss and the
// resident way on-die.
func (c *TDRAM) AccessRead(at int64, line memtypes.LineAddr) ReadResult {
	set, tag := c.index(line)
	loc := c.devMap.Map(set)
	actual := c.findWay(set, tag)
	hit := actual >= 0
	guess := int(c.mru[set])
	c.stats.Reads++

	c.stats.ProbeReads++
	first := c.dev.Access(at, loc, memtypes.Read, memtypes.LineSize).DataAt

	if hit {
		c.stats.Predictions++
		done := first
		fastPath := guess == actual
		if fastPath {
			c.stats.Correct++
		} else {
			// The on-die compare named the real way; one more data access.
			c.stats.ProbeReads++
			done = c.dev.Access(first, loc, memtypes.Read, memtypes.LineSize).DataAt
		}
		c.mru[set] = uint8(actual)
		c.stats.ReadHits++
		c.stats.HitLatency.add(done - at)
		return ReadResult{Done: done, Hit: true, Way: uint8(actual), FirstProbeHit: fastPath}
	}

	// Miss: known tagEarly cycles before the (useless) data burst
	// finishes — the early-miss-detection property — so the NVM fill
	// launches ahead of the access completing. No confirmation probes:
	// the tag mats covered every way.
	missKnownAt := first - c.tagEarly
	if missKnownAt < at {
		missKnownAt = at
	}
	c.stats.NVMReads++
	nvmDone := c.nvm.Access(missKnownAt, c.nvmLoc(line), memtypes.Read, memtypes.LineSize).DataAt
	way := c.installTDRAM(missKnownAt, loc, set, tag, false, guess)
	c.mru[set] = uint8(way)
	c.stats.MissLatency.add(nvmDone - at)
	return ReadResult{Done: nvmDone, Hit: false, Way: uint8(way)}
}

// installTDRAM places (set, tag) into the victim way with a single
// combined tag+data write. streamedWay is the way whose data the access
// already burst (-1 when none): a dirty victim in any other way must be
// read out before being overwritten.
func (c *TDRAM) installTDRAM(at int64, loc dram.Loc, set, tag uint64, dirty bool, streamedWay int) int {
	way := c.victimWay(set)
	s := c.slot(set, way)
	m := &c.meta[s]
	if m.valid() && m.dirty() {
		if way != streamedWay {
			c.stats.VictimReads++
			at = c.dev.Access(at, loc, memtypes.Read, memtypes.LineSize).DataAt
		}
		victim := c.lineOf(set, m.tag())
		c.stats.NVMWrites++
		c.nvm.Access(at, c.nvmLoc(victim), memtypes.Write, memtypes.LineSize)
	}
	*m = residentMeta(tag, dirty)
	c.stats.InstallWrites++
	c.dev.Access(at, loc, memtypes.Write, memtypes.LineSize)
	return way
}

// Writeback implements Interface. Tag and data update in one access;
// absent lines write-allocate without an NVM read (the L3 holds the
// whole line), paying a victim read only for a dirty victim.
func (c *TDRAM) Writeback(at int64, line memtypes.LineAddr) int64 {
	set, tag := c.index(line)
	loc := c.devMap.Map(set)
	c.stats.Writebacks++
	if way := c.findWay(set, tag); way >= 0 {
		c.stats.WritebackHits++
		c.meta[c.slot(set, way)] |= metaDirty
		c.mru[set] = uint8(way)
		c.stats.WritebackWrites++
		return c.dev.Access(at, loc, memtypes.Write, memtypes.LineSize).DataAt
	}
	way := c.installTDRAM(at, loc, set, tag, true, -1)
	c.mru[set] = uint8(way)
	return at
}

// AccessReadFunctional implements the state-only read path: identical
// MRU, round-robin, and tag mutations, no device traffic.
func (c *TDRAM) AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool) {
	set, tag := c.index(line)
	if actual := c.findWay(set, tag); actual >= 0 {
		c.mru[set] = uint8(actual)
		return uint8(actual), true
	}
	w := c.installFunctionalTDRAM(set, tag, false)
	c.mru[set] = uint8(w)
	return uint8(w), false
}

// installFunctionalTDRAM is installTDRAM without device traffic.
func (c *TDRAM) installFunctionalTDRAM(set, tag uint64, dirty bool) int {
	way := c.victimWay(set)
	c.meta[c.slot(set, way)] = residentMeta(tag, dirty)
	return way
}

// WritebackFunctional implements the state-only writeback path.
func (c *TDRAM) WritebackFunctional(line memtypes.LineAddr) {
	set, tag := c.index(line)
	if way := c.findWay(set, tag); way >= 0 {
		c.meta[c.slot(set, way)] |= metaDirty
		c.mru[set] = uint8(way)
		return
	}
	way := c.installFunctionalTDRAM(set, tag, true)
	c.mru[set] = uint8(way)
}

// CheckInvariants implements Interface.
func (c *TDRAM) CheckInvariants() error {
	for set := uint64(0); set < c.sets; set++ {
		if int(c.mru[set]) >= c.ways {
			return fmt.Errorf("tdram: MRU hint %d out of range in set %d", c.mru[set], set)
		}
		if int(c.rr[set]) >= c.ways {
			return fmt.Errorf("tdram: victim cursor %d out of range in set %d", c.rr[set], set)
		}
		base := int(set) * c.ways
		for w := 0; w < c.ways; w++ {
			m := c.meta[base+w]
			if !m.valid() {
				continue
			}
			if matchWay(c.meta[base+w+1:base+c.ways], m.tag()) >= 0 {
				return fmt.Errorf("tdram: duplicate tag %#x in set %d", m.tag(), set)
			}
		}
	}
	return nil
}

// tdramVersion is the snapshot encoding version.
const tdramVersion = 1

// Snapshot implements Interface.
func (c *TDRAM) Snapshot(e *ckpt.Encoder) error {
	e.U8(tdramVersion)
	e.U64(c.sets)
	e.U8(uint8(c.ways))
	snapshotMeta(e, c.meta)
	e.Raw(c.mru)
	e.Raw(c.rr)
	snapshotStats(e, &c.stats)
	return nil
}

// Restore implements Interface.
func (c *TDRAM) Restore(d *ckpt.Decoder) error {
	if v := d.U8(); d.Err() == nil && v != tdramVersion {
		d.Failf("tdram: snapshot version %d, want %d", v, tdramVersion)
	}
	if sets := d.U64(); d.Err() == nil && sets != c.sets {
		d.Failf("tdram: snapshot has %d sets, cache has %d", sets, c.sets)
	}
	if ways := d.U8(); d.Err() == nil && int(ways) != c.ways {
		d.Failf("tdram: snapshot has %d ways, cache has %d", ways, c.ways)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := restoreMeta(d, c.meta, "tdram"); err != nil {
		return err
	}
	for _, arr := range [][]uint8{c.mru, c.rr} {
		raw := d.Raw(len(arr))
		if d.Err() != nil {
			return d.Err()
		}
		for i, v := range raw {
			if int(v) >= c.ways {
				d.Failf("tdram: way hint %d out of range", v)
				return d.Err()
			}
			arr[i] = v
		}
	}
	restoreStats(d, &c.stats)
	return d.Err()
}

var _ Interface = (*TDRAM)(nil)

func init() {
	Register(Backend{
		Name: "tdram",
		New: func(cfg BackendConfig, deps Deps) (Interface, error) {
			t, err := NewTDRAM(cfg.CapacityBytes, cfg.Ways, deps.Dev, deps.NVM)
			if err != nil {
				return nil, err
			}
			return t, nil
		},
	})
}
