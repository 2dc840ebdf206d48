package dramcache

import (
	"fmt"

	"accord/internal/dram"
	"accord/internal/memtypes"
	"accord/internal/metrics"
)

// deviceBase is what every organization holds: the stacked-DRAM device
// it lives in, the NVM main memory behind it, and its statistics.
type deviceBase struct {
	dev    *dram.Device
	nvm    *dram.Device
	nvmMap dram.Mapper // line -> NVM row
	stats  Stats
}

func newDeviceBase(dev, nvm *dram.Device) deviceBase {
	return deviceBase{dev: dev, nvm: nvm, nvmMap: nvm.Config().NewMapper(nvm.Config().RowBytes / memtypes.LineSize)}
}

// Stats implements Interface.
func (b *deviceBase) Stats() *Stats { return &b.stats }

// ResetStats implements Interface: statistics restart (contents persist),
// for warmup.
func (b *deviceBase) ResetStats() { b.stats = Stats{} }

// RegisterMetrics implements Interface.
func (b *deviceBase) RegisterMetrics(r *metrics.Registry, prefix string) {
	b.stats.Register(r, prefix)
}

// nvmRead fetches line from main memory and returns when its data arrives.
func (b *deviceBase) nvmRead(at int64, line memtypes.LineAddr) int64 {
	b.stats.NVMReads++
	return b.nvm.Access(at, b.nvmMap.Map(uint64(line)), memtypes.Read, memtypes.LineSize).DataAt
}

// nvmWrite writes a dirty victim back to main memory.
func (b *deviceBase) nvmWrite(at int64, line memtypes.LineAddr) {
	b.stats.NVMWrites++
	b.nvm.Access(at, b.nvmMap.Map(uint64(line)), memtypes.Write, memtypes.LineSize)
}

// probeRead streams one 72-byte tag+data unit from loc.
func (b *deviceBase) probeRead(at int64, loc dram.Loc) int64 {
	b.stats.ProbeReads++
	return b.dev.Access(at, loc, memtypes.Read, memtypes.TagUnitSize).DataAt
}

// writebackHit updates a resident line with one write of unit bytes: the
// L3's DCP+way bits name the slot, so no probe is needed.
func (b *deviceBase) writebackHit(at int64, loc dram.Loc, unit int) int64 {
	b.stats.WritebackHits++
	b.stats.WritebackWrites++
	return b.dev.Access(at, loc, memtypes.Write, unit).DataAt
}

// wayMeta is one way of the tag store the simulator keeps in host memory
// (the modeled machine keeps it in the DRAM array itself), packed into
// one word as tag<<2 | dirty<<1 | valid.
//
// A tag is a line address shifted right by the set-index bits, and a line
// address is a byte address shifted right by memtypes.LineShift, so every
// tag the simulator forms fits in the 62 bits the packing leaves. Restore
// rejects a snapshot tag that does not.
type wayMeta uint64

const (
	metaValid wayMeta = 1 << iota
	metaDirty
	metaTagShift = 2
	// maxMetaTag is the widest tag a packed way can hold.
	maxMetaTag = ^uint64(0) >> metaTagShift
)

// residentMeta is the packed entry of a freshly installed line.
func residentMeta(tag uint64, dirty bool) wayMeta {
	m := wayMeta(tag<<metaTagShift) | metaValid
	if dirty {
		m |= metaDirty
	}
	return m
}

func (m wayMeta) tag() uint64 { return uint64(m >> metaTagShift) }
func (m wayMeta) valid() bool { return m&metaValid != 0 }
func (m wayMeta) dirty() bool { return m&metaDirty != 0 }

// matchWay returns the way of set holding tag, or -1. Masking off the
// dirty bit leaves a word that equals the wanted one exactly when the way
// is valid and its tag matches, so each way costs one compare; an
// invalidated entry's stale tag can never alias a live one.
func matchWay(set []wayMeta, tag uint64) int {
	want := wayMeta(tag<<metaTagShift) | metaValid
	for w, m := range set {
		if m&^metaDirty == want {
			return w
		}
	}
	return -1
}

// tagStore is the line-granularity set-associative array the nway cache,
// Gemini and TDRAM are built on: the geometry, one packed word per way,
// and the set -> device row mapping (all ways of a set co-located,
// Figure 2b).
type tagStore struct {
	deviceBase

	sets     uint64
	setMask  uint64
	setShift uint
	ways     int

	// meta is the tag store findWay scans on every access, one packed
	// word per way, so a whole 2-way set fits in a quarter of a host
	// cache line.
	meta   []wayMeta
	devMap dram.Mapper // set -> device row

	// touched keeps touch's loads live. It is not cache state: no
	// snapshot, invariant or result reads it, and it lives per instance
	// because concurrent simulations would race on a package-level sink.
	touched wayMeta
}

// outcome is what one state transition on a tag store did, for the timed
// path to charge to the devices; the functional path drops it.
type outcome struct {
	hit      int     // the way that hit, or -1 on a miss
	way      int     // the way the line occupies afterwards
	replaced wayMeta // what a miss's install overwrote
	guess    int     // TDRAM: the MRU way before the access
	pred     int     // nway predicted lookup: the predicted way
	filtered bool    // nway predicted lookup: FilterMiss proved the miss
}

// newTagStore sizes a tag store of capacityBytes in ways-way sets, each
// way taking unitBytes of a device row.
func newTagStore(capacityBytes int64, ways, unitBytes int, dev, nvm *dram.Device) tagStore {
	sets := uint64(capacityBytes / (int64(ways) * memtypes.LineSize))
	return tagStore{
		deviceBase: newDeviceBase(dev, nvm),
		sets:       sets,
		setMask:    sets - 1,
		setShift:   log2(sets),
		ways:       ways,
		meta:       make([]wayMeta, sets*uint64(ways)),
		devMap:     dev.Config().NewMapper(dev.Config().RowBytes / (ways * unitBytes)),
	}
}

func log2(x uint64) uint {
	var n uint
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

func (t *tagStore) index(line memtypes.LineAddr) (set, tag uint64) {
	return uint64(line) & t.setMask, uint64(line) >> t.setShift
}

func (t *tagStore) slot(set uint64, way int) int { return int(set)*t.ways + way }

func (t *tagStore) lineOf(set, tag uint64) memtypes.LineAddr {
	return memtypes.LineAddr(tag<<t.setShift | set)
}

// findWay returns the way holding (set, tag), or -1.
func (t *tagStore) findWay(set, tag uint64) int {
	base := int(set) * t.ways
	return matchWay(t.meta[base:base+t.ways], tag)
}

// Contains implements Interface (the simulator's idealized DCP source).
func (t *tagStore) Contains(line memtypes.LineAddr) (way int, ok bool) {
	set, tag := t.index(line)
	w := t.findWay(set, tag)
	return w, w >= 0
}

// fill writes (set, tag) into way and returns what it replaced.
func (t *tagStore) fill(set, tag uint64, way int, dirty bool) wayMeta {
	m := &t.meta[t.slot(set, way)]
	old := *m
	*m = residentMeta(tag, dirty)
	return old
}

// touch loads the first tag word of each line's set. The loads are
// independent of one another and of the tag store's contents, so the
// processor issues them back to back and their misses overlap; the ops
// that follow then find their sets in the host's caches. OR-ing the words
// into touched keeps the compiler from dropping the loads.
func (t *tagStore) touch(lines []memtypes.LineAddr) {
	var acc wayMeta
	for _, line := range lines {
		acc |= t.meta[int(uint64(line)&t.setMask)*t.ways]
	}
	t.touched |= acc
}

// installTraffic charges a miss's install into a 72-byte tags-with-data
// array at loc: the victim unit's read when the lookup did not already
// stream it (whether the slot even holds valid data is only discoverable
// by reading it), the NVM write of a dirty victim, then the install
// write.
func (t *tagStore) installTraffic(at int64, loc dram.Loc, set uint64, replaced wayMeta, victimProbed bool) {
	if !victimProbed {
		t.stats.VictimReads++
		at = t.dev.Access(at, loc, memtypes.Read, memtypes.TagUnitSize).DataAt
	}
	if replaced.valid() && replaced.dirty() {
		t.nvmWrite(at, t.lineOf(set, replaced.tag()))
	}
	t.stats.InstallWrites++
	t.dev.Access(at, loc, memtypes.Write, memtypes.TagUnitSize)
}

// checkTags reports a set holding one tag in two ways; who prefixes the
// error.
func (t *tagStore) checkTags(who string) error {
	for set := uint64(0); set < t.sets; set++ {
		base := int(set) * t.ways
		for w := 0; w < t.ways; w++ {
			m := t.meta[base+w]
			if m.valid() && matchWay(t.meta[base+w+1:base+t.ways], m.tag()) >= 0 {
				return fmt.Errorf("%s: duplicate tag %#x in set %d", who, m.tag(), set)
			}
		}
	}
	return nil
}

// copyFrom copies s's tags and statistics into t, reporting false, with
// nothing copied, when the two differ in geometry.
func (t *tagStore) copyFrom(s *tagStore) bool {
	if s.sets != t.sets || s.ways != t.ways {
		return false
	}
	copy(t.meta, s.meta)
	t.stats = s.stats
	return true
}
