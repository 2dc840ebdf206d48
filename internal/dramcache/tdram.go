package dramcache

import (
	"fmt"

	"accord/internal/ckpt"
	"accord/internal/dram"
	"accord/internal/memtypes"
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
	tagStore

	mru []uint8 // per-set most-recently-used way (the burst guess)
	rr  []uint8 // per-set round-robin victim cursor

	// tagEarly is how many cycles before data-burst completion the on-die
	// tag compare resolves: the access-time delta between a full line and
	// a tag-sized beat, precomputed from the device timing.
	tagEarly int64
}

// tdramTagBytes sizes the early tag readout used to precompute tagEarly.
const tdramTagBytes = 8

// checkTDRAM reports why capacityBytes and ways give no TDRAM geometry.
func checkTDRAM(capacityBytes int64, ways int) error {
	if err := (Config{CapacityBytes: capacityBytes, Ways: ways}).Validate(); err != nil {
		return err
	}
	if ways > 256 {
		return fmt.Errorf("dramcache: tdram ways %d exceed the uint8 MRU hint", ways)
	}
	return nil
}

// NewTDRAM builds a tag-enhanced cache with the given associativity.
func NewTDRAM(capacityBytes int64, ways int, dev, nvm *dram.Device) (*TDRAM, error) {
	if err := checkTDRAM(capacityBytes, ways); err != nil {
		return nil, err
	}
	early := dev.UnloadedReadLatency(memtypes.LineSize) - dev.UnloadedReadLatency(tdramTagBytes)
	if early < 0 {
		early = 0
	}
	// Sets map at line granularity: tags live in separate mats, so a row
	// holds plain 64-byte lines (the organization's density advantage over
	// tags-with-data). One set's ways stay co-located per row where they
	// fit.
	ts := newTagStore(capacityBytes, ways, memtypes.LineSize, dev, nvm)
	return &TDRAM{
		tagStore: ts,
		mru:      make([]uint8, ts.sets),
		rr:       make([]uint8, ts.sets),
		tagEarly: early,
	}, nil
}

// Name implements Interface.
func (c *TDRAM) Name() string { return fmt.Sprintf("tdram-%dway", c.ways) }

// StorageBytes implements Interface: tags, MRU hints, and replacement
// state all live in the DRAM tag mats, so no SRAM is needed.
func (c *TDRAM) StorageBytes() int64 { return 0 }

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

// access is the state transition of a read or a writeback: tags, the
// round-robin cursor on an install, and the MRU hint, which names the
// accessed way afterwards.
func (c *TDRAM) access(set, tag uint64, write bool) outcome {
	a := outcome{hit: c.findWay(set, tag), guess: int(c.mru[set])}
	if a.hit >= 0 {
		a.way = a.hit
		if write {
			c.meta[c.slot(set, a.hit)] |= metaDirty
		}
	} else {
		a.way = c.victimWay(set)
		a.replaced = c.fill(set, tag, a.way, write)
	}
	c.mru[set] = uint8(a.way)
	return a
}

// AccessReadFunctional implements Interface.
func (c *TDRAM) AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool) {
	set, tag := c.index(line)
	a := c.access(set, tag, false)
	return uint8(a.way), a.hit >= 0
}

// WritebackFunctional implements Interface.
func (c *TDRAM) WritebackFunctional(line memtypes.LineAddr) {
	set, tag := c.index(line)
	c.access(set, tag, true)
}

// AccessRead implements Interface. Every access streams one 64-byte line
// (the MRU guess); the concurrent tag-mat read resolves hit/miss and the
// resident way on-die.
func (c *TDRAM) AccessRead(at int64, line memtypes.LineAddr) ReadResult {
	set, tag := c.index(line)
	loc := c.devMap.Map(set)
	a := c.access(set, tag, false)
	c.stats.Reads++

	c.stats.ProbeReads++
	first := c.dev.Access(at, loc, memtypes.Read, memtypes.LineSize).DataAt

	if a.hit >= 0 {
		c.stats.Predictions++
		done := first
		fastPath := a.guess == a.hit
		if fastPath {
			c.stats.Correct++
		} else {
			// The on-die compare named the real way; one more data access.
			c.stats.ProbeReads++
			done = c.dev.Access(first, loc, memtypes.Read, memtypes.LineSize).DataAt
		}
		c.stats.ReadHits++
		c.stats.HitLatency.add(done - at)
		return ReadResult{Done: done, Hit: true, Way: uint8(a.hit), FirstProbeHit: fastPath}
	}

	// Miss: known tagEarly cycles before the (useless) data burst
	// finishes — the early-miss-detection property — so the NVM fill
	// launches ahead of the access completing. No confirmation probes:
	// the tag mats covered every way.
	missKnownAt := first - c.tagEarly
	if missKnownAt < at {
		missKnownAt = at
	}
	nvmDone := c.nvmRead(missKnownAt, line)
	c.installTraffic(missKnownAt, loc, set, a, a.guess)
	c.stats.MissLatency.add(nvmDone - at)
	return ReadResult{Done: nvmDone, Hit: false, Way: uint8(a.way)}
}

// installTraffic charges a miss's install with a single combined tag+data
// write. streamedWay is the way whose data the access already burst (-1
// when none): a dirty victim in any other way must be read out before
// being overwritten.
func (c *TDRAM) installTraffic(at int64, loc dram.Loc, set uint64, a outcome, streamedWay int) {
	if a.replaced.valid() && a.replaced.dirty() {
		if a.way != streamedWay {
			c.stats.VictimReads++
			at = c.dev.Access(at, loc, memtypes.Read, memtypes.LineSize).DataAt
		}
		c.nvmWrite(at, c.lineOf(set, a.replaced.tag()))
	}
	c.stats.InstallWrites++
	c.dev.Access(at, loc, memtypes.Write, memtypes.LineSize)
}

// Writeback implements Interface. Tag and data update in one access;
// absent lines write-allocate without an NVM read (the L3 holds the
// whole line), paying a victim read only for a dirty victim.
func (c *TDRAM) Writeback(at int64, line memtypes.LineAddr) int64 {
	set, tag := c.index(line)
	loc := c.devMap.Map(set)
	c.stats.Writebacks++
	a := c.access(set, tag, true)
	if a.hit >= 0 {
		return c.writebackHit(at, loc, memtypes.LineSize)
	}
	c.installTraffic(at, loc, set, a, -1)
	return at
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
	}
	return c.checkTags("tdram")
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
		Name:  "tdram",
		Check: func(cfg BackendConfig, _ uint64) error { return checkTDRAM(cfg.CapacityBytes, cfg.Ways) },
		New: func(cfg BackendConfig, deps Deps) (Interface, error) {
			t, err := NewTDRAM(cfg.CapacityBytes, cfg.Ways, deps.Dev, deps.NVM)
			if err != nil {
				return nil, err
			}
			return t, nil
		},
	})
}
