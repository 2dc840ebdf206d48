package dramcache

import (
	"fmt"

	"accord/internal/dram"
	"accord/internal/memtypes"
)

// CACache is the Column-Associative (hash-rehash) baseline of Section VII:
// a direct-mapped DRAM cache in which every line has a primary index and a
// rehash index (the primary with its top set bit flipped). A hit at the
// primary index costs one access; a hit at the rehash index costs a second
// access plus a swap of the two units, so the line is fast next time.
// The swap traffic is what makes the CA-cache lose to ACCORD (Figure 14)
// despite a similar one-access hit probability.
type CACache struct {
	deviceBase

	sets    uint64 // direct-mapped slot count
	flipBit uint64 // XOR mask flipping the top index bit

	lines []memtypes.LineAddr // resident line per slot
	valid []bool
	dirty []bool

	mapper dram.Mapper // slot -> device row
}

// caOutcome is what one CA transition did, for the timed path to charge.
type caOutcome struct {
	hit int // 0 at the primary slot, 1 at the rehash slot, -1 on a miss
	// A miss installs at the primary slot, demoting its line (when there
	// was one) to the rehash slot and evicting the rehash slot's line.
	demoted  bool
	evicted  memtypes.LineAddr // the evicted line, when it was dirty
	writeOut bool              // evicted holds a dirty line
}

// checkCA reports why capacityBytes gives no column-associative cache:
// a direct-mapped geometry of at least two slots, so every slot has a
// rehash partner.
func checkCA(capacityBytes int64) error {
	if err := (Config{CapacityBytes: capacityBytes, Ways: 1}).Validate(); err != nil {
		return err
	}
	if slots := capacityBytes / memtypes.LineSize; slots < 2 {
		return fmt.Errorf("dramcache: CA cache needs >= 2 slots, got %d", slots)
	}
	return nil
}

// NewCA builds a column-associative cache of the given capacity. It
// panics on a capacity checkCA rejects.
func NewCA(capacityBytes int64, dev, nvm *dram.Device) *CACache {
	if err := checkCA(capacityBytes); err != nil {
		panic(err)
	}
	sets := uint64(capacityBytes / memtypes.LineSize)
	return &CACache{
		deviceBase: newDeviceBase(dev, nvm),
		sets:       sets,
		flipBit:    sets >> 1,
		lines:      make([]memtypes.LineAddr, sets),
		valid:      make([]bool, sets),
		dirty:      make([]bool, sets),
		mapper:     dev.Config().NewMapper(dev.Config().RowBytes / memtypes.TagUnitSize),
	}
}

// Name implements Interface.
func (c *CACache) Name() string { return "ca-cache" }

// StorageBytes implements Interface: the CA-cache needs no SRAM metadata.
func (c *CACache) StorageBytes() int64 { return 0 }

func (c *CACache) primary(line memtypes.LineAddr) uint64 { return uint64(line) & (c.sets - 1) }
func (c *CACache) rehash(idx uint64) uint64              { return idx ^ c.flipBit }

func (c *CACache) loc(idx uint64) dram.Loc {
	return c.mapper.Map(idx)
}

func (c *CACache) write(at int64, idx uint64) int64 {
	return c.dev.Access(at, c.loc(idx), memtypes.Write, memtypes.TagUnitSize).DataAt
}

func (c *CACache) resident(idx uint64, line memtypes.LineAddr) bool {
	return c.valid[idx] && c.lines[idx] == line
}

// Contains implements Interface.
func (c *CACache) Contains(line memtypes.LineAddr) (way int, ok bool) {
	i1 := c.primary(line)
	if c.resident(i1, line) {
		return 0, true
	}
	if c.resident(c.rehash(i1), line) {
		return 1, true
	}
	return 0, false
}

// read is the state transition of a demand read. A slow hit swaps the two
// slots so the line is fast next time; the swap is cache state, not
// timing.
func (c *CACache) read(line memtypes.LineAddr) caOutcome {
	i1 := c.primary(line)
	i2 := c.rehash(i1)
	switch {
	case c.resident(i1, line):
		return caOutcome{hit: 0}
	case c.resident(i2, line):
		c.lines[i1], c.lines[i2] = c.lines[i2], c.lines[i1]
		c.valid[i1], c.valid[i2] = c.valid[i2], c.valid[i1]
		c.dirty[i1], c.dirty[i2] = c.dirty[i2], c.dirty[i1]
		return caOutcome{hit: 1}
	}
	return c.install(line, i1, i2, false)
}

// writeback is the state transition of a dirty L3 eviction.
func (c *CACache) writeback(line memtypes.LineAddr) caOutcome {
	i1 := c.primary(line)
	i2 := c.rehash(i1)
	for hit, idx := range [2]uint64{i1, i2} {
		if c.resident(idx, line) {
			c.dirty[idx] = true
			return caOutcome{hit: hit}
		}
	}
	return c.install(line, i1, i2, true)
}

// install writes line into its primary slot, demoting the previous
// occupant into the rehash slot and evicting the rehash slot's occupant
// (it has nowhere else to go).
func (c *CACache) install(line memtypes.LineAddr, i1, i2 uint64, dirty bool) caOutcome {
	a := caOutcome{hit: -1, demoted: c.valid[i1]}
	if c.valid[i2] && c.dirty[i2] {
		a.evicted, a.writeOut = c.lines[i2], true
	}
	if a.demoted {
		c.lines[i2], c.valid[i2], c.dirty[i2] = c.lines[i1], true, c.dirty[i1]
	} else {
		c.valid[i2] = false
	}
	c.lines[i1], c.valid[i1], c.dirty[i1] = line, true, dirty
	return a
}

// installTraffic charges an install at i1: the dirty eviction's NVM
// write, the demoted line's write into i2, and the new line's write.
func (c *CACache) installTraffic(at int64, a caOutcome, i1, i2 uint64) {
	if a.writeOut {
		c.nvmWrite(at, a.evicted)
	}
	if a.demoted {
		c.stats.InstallWrites++
		c.write(at, i2)
	}
	c.stats.InstallWrites++
	c.write(at, i1)
}

// AccessReadFunctional implements Interface; every hit reports way 0,
// where a read leaves the line.
func (c *CACache) AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool) {
	return 0, c.read(line).hit >= 0
}

// WritebackFunctional implements Interface.
func (c *CACache) WritebackFunctional(line memtypes.LineAddr) { c.writeback(line) }

// AccessRead implements Interface.
func (c *CACache) AccessRead(at int64, line memtypes.LineAddr) ReadResult {
	c.stats.Reads++
	i1 := c.primary(line)
	i2 := c.rehash(i1)
	a := c.read(line)

	t1 := c.probeRead(at, c.loc(i1))
	if a.hit == 0 {
		// Fast hit; the "prediction" (primary index first) was right.
		c.stats.ReadHits++
		c.stats.Predictions++
		c.stats.Correct++
		c.stats.HitLatency.add(t1 - at)
		return ReadResult{Done: t1, Hit: true, Way: 0, FirstProbeHit: true}
	}

	t2 := c.probeRead(t1, c.loc(i2))
	if a.hit == 1 {
		// Slow hit: the two units were swapped so the next access is
		// fast. Both were just read; the swap costs two writes.
		c.stats.ReadHits++
		c.stats.Predictions++
		c.stats.HitLatency.add(t2 - at)
		c.stats.InstallWrites += 2
		c.write(t2, i1)
		c.write(t2, i2)
		return ReadResult{Done: t2, Hit: true, Way: 0, FirstProbeHit: false}
	}

	// Miss, confirmed after both probes. Fetch, install at the primary
	// index, and push the primary's previous occupant to the rehash slot.
	// As in Cache.AccessRead, the install's bandwidth is consumed at
	// confirmation time to keep the reservation model well-ordered.
	nvmDone := c.nvmRead(t2, line)
	c.installTraffic(t2, a, i1, i2)
	c.stats.MissLatency.add(nvmDone - at)
	return ReadResult{Done: nvmDone, Hit: false, Way: 0}
}

// Writeback implements Interface. The DCP bit tells the L3 whether the
// line is resident; with a CA-cache the slot must still be located, but
// the DCP-way extension (one bit: primary or rehash) removes the probe.
func (c *CACache) Writeback(at int64, line memtypes.LineAddr) int64 {
	c.stats.Writebacks++
	i1 := c.primary(line)
	i2 := c.rehash(i1)
	a := c.writeback(line)
	switch a.hit {
	case 0:
		return c.writebackHit(at, c.loc(i1), memtypes.TagUnitSize)
	case 1:
		return c.writebackHit(at, c.loc(i2), memtypes.TagUnitSize)
	}
	// Absent: read the primary slot (victim data), then install.
	c.stats.VictimReads++
	rd := c.dev.Access(at, c.loc(i1), memtypes.Read, memtypes.TagUnitSize).DataAt
	c.installTraffic(rd, a, i1, i2)
	return rd
}

// CheckInvariants verifies that no line is resident in both of its slots.
func (c *CACache) CheckInvariants() error {
	for idx := uint64(0); idx < c.sets; idx++ {
		if !c.valid[idx] {
			continue
		}
		line := c.lines[idx]
		i1 := c.primary(line)
		i2 := c.rehash(i1)
		if idx != i1 && idx != i2 {
			return fmt.Errorf("ca-cache: line %#x resident at foreign slot %d", uint64(line), idx)
		}
		other := i1
		if idx == i1 {
			other = i2
		}
		if c.resident(other, line) {
			return fmt.Errorf("ca-cache: line %#x duplicated in slots %d and %d", uint64(line), idx, other)
		}
	}
	return nil
}

var _ Interface = (*CACache)(nil)
var _ Interface = (*Cache)(nil)
