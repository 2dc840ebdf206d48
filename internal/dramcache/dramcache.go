// Package dramcache models the gigascale DRAM cache (L4) of the paper: an
// alloy-style, tags-with-data organization in stacked DRAM, direct-mapped
// or set-associative with all ways of a set co-located in one row buffer
// (Figure 2), in front of a slow non-volatile main memory.
//
// Every probe of a way streams a 72-byte tag+data unit from the stacked
// DRAM device, so associativity costs real bandwidth; the lookup policies
// of Section II-C (parallel, serial, way-predicted, plus the idealized and
// perfect-prediction oracles) decide how many probes each access pays.
// Way prediction and way install are delegated to a core.Policy — the
// coordination that ACCORD contributes.
package dramcache

import (
	"fmt"
	"math"
	"math/bits"

	"accord/internal/ckpt"
	"accord/internal/core"
	"accord/internal/dram"
	"accord/internal/memtypes"
	"accord/internal/metrics"
)

// Lookup selects how the cache locates a line among its ways
// (Section II-C and Figure 3).
type Lookup int

const (
	// LookupPredicted probes the policy-predicted way first and the
	// remaining candidate ways only if it misses. This is the design
	// ACCORD targets; with one way it degenerates to direct-mapped.
	LookupPredicted Lookup = iota
	// LookupParallel streams all candidate ways on every access.
	LookupParallel
	// LookupSerial probes ways one at a time, stopping on a tag match.
	LookupSerial
	// LookupPerfect is the perfect-way-prediction oracle: hits probe
	// exactly the resident way; misses still pay full confirmation.
	LookupPerfect
	// LookupIdealized is the Figure 1(c) oracle: every access costs one
	// probe regardless of hit or miss (bandwidth and latency of 1-way).
	LookupIdealized
)

// String implements fmt.Stringer.
func (l Lookup) String() string {
	switch l {
	case LookupPredicted:
		return "predicted"
	case LookupParallel:
		return "parallel"
	case LookupSerial:
		return "serial"
	case LookupPerfect:
		return "perfect"
	case LookupIdealized:
		return "idealized"
	default:
		return fmt.Sprintf("Lookup(%d)", int(l))
	}
}

// Config describes a DRAM cache instance.
type Config struct {
	CapacityBytes int64
	Ways          int
	Lookup        Lookup
	// LRUReplacement switches the install-victim choice from the policy's
	// steering to true LRU. Because tags (and replacement state) live in
	// the DRAM array, every hit then pays an extra state-update write —
	// the bandwidth tax of footnote 2.
	LRUReplacement bool
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Ways < 1:
		return fmt.Errorf("dramcache: ways = %d, must be >= 1", c.Ways)
	case c.CapacityBytes < int64(c.Ways)*memtypes.LineSize:
		return fmt.Errorf("dramcache: capacity %d below one set", c.CapacityBytes)
	case c.CapacityBytes%(int64(c.Ways)*memtypes.LineSize) != 0:
		return fmt.Errorf("dramcache: capacity %d not divisible by set size", c.CapacityBytes)
	}
	sets := c.CapacityBytes / (int64(c.Ways) * memtypes.LineSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("dramcache: %d sets, must be a power of two", sets)
	}
	return nil
}

// ReadResult reports one demand read.
type ReadResult struct {
	Done int64 // cycle the requested data is available
	Hit  bool
	// Way is the way the line resides in after the access (the hit way, or
	// the install way on a miss); it feeds the L3's DCP state.
	Way uint8
	// FirstProbeHit is true when the access was serviced by the first
	// probe (the fast path every lookup design optimizes for).
	FirstProbeHit bool
}

// Stats counts the cache's externally meaningful events.
type Stats struct {
	Reads    uint64
	ReadHits uint64

	Writebacks    uint64
	WritebackHits uint64

	// Way-prediction accounting over demand-read hits.
	Predictions uint64
	Correct     uint64

	// DRAM-cache device traffic by cause, in 72-byte probe/write units.
	ProbeReads      uint64 // lookup + miss-confirmation reads
	InstallWrites   uint64 // line fills (demand and writeback installs)
	WritebackWrites uint64 // writeback updates of resident lines
	VictimReads     uint64 // reads needed only to evict an unprobed victim
	ReplStateOps    uint64 // LRU replacement-state update writes

	// Main-memory traffic in 64-byte lines.
	NVMReads  uint64
	NVMWrites uint64

	// FilteredMisses counts misses confirmed with zero probes thanks to
	// policy metadata (partial tags).
	FilteredMisses uint64

	HitLatency, MissLatency LatencySum
}

// Add accumulates o into s field by field; Stats is a plain sum type,
// so per-interval deltas from sampled measured windows compose by
// addition (used by sim's sampled-run stat committer).
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.ReadHits += o.ReadHits
	s.Writebacks += o.Writebacks
	s.WritebackHits += o.WritebackHits
	s.Predictions += o.Predictions
	s.Correct += o.Correct
	s.ProbeReads += o.ProbeReads
	s.InstallWrites += o.InstallWrites
	s.WritebackWrites += o.WritebackWrites
	s.VictimReads += o.VictimReads
	s.ReplStateOps += o.ReplStateOps
	s.NVMReads += o.NVMReads
	s.NVMWrites += o.NVMWrites
	s.FilteredMisses += o.FilteredMisses
	s.HitLatency.Add(o.HitLatency)
	s.MissLatency.Add(o.MissLatency)
}

// Add accumulates another latency population into l.
func (l *LatencySum) Add(o LatencySum) {
	l.Count += o.Count
	l.Sum += o.Sum
	for i := range l.Buckets {
		l.Buckets[i] += o.Buckets[i]
	}
}

// LatencySum accumulates a latency population with coarse power-of-two
// buckets for percentile estimation.
type LatencySum struct {
	Count   uint64
	Sum     int64
	Buckets [24]uint64 // bucket i holds latencies in [2^i, 2^(i+1))
}

func (l *LatencySum) add(cycles int64) {
	l.Count++
	l.Sum += cycles
	// floor(log2(cycles)) via bits.Len64, clamped to the last bucket —
	// same bucket the shift loop this replaces produced for every input
	// (cycles <= 1, including non-positive, lands in bucket 0).
	b := 0
	if cycles > 1 {
		b = bits.Len64(uint64(cycles)) - 1
		if b > len(l.Buckets)-1 {
			b = len(l.Buckets) - 1
		}
	}
	l.Buckets[b]++
}

// Percentile returns an upper bound on the q-quantile latency (q in
// [0,1]) from the bucket histogram.
func (l LatencySum) Percentile(q float64) int64 {
	if l.Count == 0 {
		return 0
	}
	want := uint64(q * float64(l.Count))
	var cum uint64
	for i, n := range l.Buckets {
		cum += n
		if cum > want {
			return 1 << uint(i+1)
		}
	}
	return 1 << uint(len(l.Buckets))
}

// Mean returns the average latency in cycles.
func (l LatencySum) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.Count)
}

// HitRate returns demand-read hit rate in [0,1].
func (s *Stats) HitRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadHits) / float64(s.Reads)
}

// PredictionAccuracy returns the fraction of predicted hits that probed
// the right way first.
func (s *Stats) PredictionAccuracy() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Predictions)
}

// ProbesPerRead returns average probe reads per demand read (Table I).
func (s *Stats) ProbesPerRead() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ProbeReads) / float64(s.Reads)
}

// latencyBounds are the exported bucket upper bounds of LatencySum's
// power-of-two histogram: bucket i covers [2^i, 2^(i+1)), so its upper
// bound is 2^(i+1); the final bucket is overflow.
var latencyBounds = metrics.PowerOfTwoBounds(len(LatencySum{}.Buckets) - 1)

// histValue exports the latency population in the registry's histogram
// form.
func (l *LatencySum) histValue() metrics.HistogramValue {
	return metrics.HistogramValue{
		Count:   l.Count,
		Sum:     float64(l.Sum),
		Buckets: append([]uint64(nil), l.Buckets[:]...),
	}
}

// Register publishes every cache statistic into r under prefix (e.g.
// "l4"). The registrations are views: the simulation hot path keeps
// bumping the plain struct fields, and the registry reads them at
// snapshot time, so the plain-text tables (rendered from the same
// fields) and the JSON/CSV export can never disagree.
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	c := func(name, help string, fn func() uint64) { r.CounterFunc(prefix+"."+name, help, fn) }
	c("reads", "demand reads reaching the DRAM cache", func() uint64 { return s.Reads })
	c("read_hits", "demand reads that hit", func() uint64 { return s.ReadHits })
	c("writebacks", "dirty L3 evictions received", func() uint64 { return s.Writebacks })
	c("writeback_hits", "writebacks that found the line resident", func() uint64 { return s.WritebackHits })
	c("predictions", "way predictions made on demand-read hits", func() uint64 { return s.Predictions })
	c("predictions_correct", "way predictions whose first probe hit", func() uint64 { return s.Correct })
	c("probe_reads", "72 B tag+data probe reads (lookup + miss confirmation)", func() uint64 { return s.ProbeReads })
	c("install_writes", "72 B line-install writes", func() uint64 { return s.InstallWrites })
	c("writeback_writes", "72 B resident-line writeback updates", func() uint64 { return s.WritebackWrites })
	c("victim_reads", "72 B reads needed only to evict an unprobed victim", func() uint64 { return s.VictimReads })
	c("repl_state_ops", "LRU replacement-state update writes", func() uint64 { return s.ReplStateOps })
	c("nvm_reads", "64 B line fills from main memory", func() uint64 { return s.NVMReads })
	c("nvm_writes", "64 B dirty-victim writes to main memory", func() uint64 { return s.NVMWrites })
	c("filtered_misses", "misses confirmed with zero probes via policy metadata", func() uint64 { return s.FilteredMisses })

	r.GaugeFunc(prefix+".hit_rate_pct", "demand-read hit rate, percent (absent before any read)",
		func() float64 { return pctOrNaN(s.ReadHits, s.Reads) })
	r.GaugeFunc(prefix+".prediction_accuracy_pct", "way-prediction accuracy, percent (absent before any predicted hit)",
		func() float64 { return pctOrNaN(s.Correct, s.Predictions) })
	r.GaugeFunc(prefix+".probes_per_read", "average probe reads per demand read (absent before any read)",
		func() float64 { return ratioOrNaN(s.ProbeReads, s.Reads) })

	r.HistogramFunc(prefix+".hit_latency", "demand-hit latency, cycles (power-of-two buckets)",
		latencyBounds, func() metrics.HistogramValue { return s.HitLatency.histValue() })
	r.HistogramFunc(prefix+".miss_latency", "demand-miss latency, cycles (power-of-two buckets)",
		latencyBounds, func() metrics.HistogramValue { return s.MissLatency.histValue() })
}

// pctOrNaN and ratioOrNaN keep the gauge views' "undefined" semantics in
// one place: a zero denominator exports as an absent value, never as 0.
func pctOrNaN(num, den uint64) float64 { return 100 * ratioOrNaN(num, den) }

func ratioOrNaN(num, den uint64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return float64(num) / float64(den)
}

// Interface is the complete L4-organization contract: everything the rest
// of the system needs from a DRAM-cache backend. All five bundled
// organizations (nway, ca, banshee, gemini, tdram) implement it, and the
// conformance suite in dctest exercises every obligation; new backends
// register through Register and must pass the same suite.
type Interface interface {
	Name() string
	AccessRead(at int64, line memtypes.LineAddr) ReadResult
	Writeback(at int64, line memtypes.LineAddr) int64
	// AccessReadFunctional and WritebackFunctional are the state-only
	// counterparts of AccessRead/Writeback used by functional
	// fast-forwarding: same tag/dirty/replacement/policy mutations, no
	// device traffic, no Stats, no timestamps (see functional.go). A
	// functional op sequence must leave Snapshot-identical state to the
	// same detailed sequence (stats reset at the comparison point).
	AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool)
	WritebackFunctional(line memtypes.LineAddr)
	// FunctionalBatch applies a run of functional operations in one call:
	// lines[i] is a WritebackFunctional when flags[i]&FunctionalWrite is
	// set, an AccessReadFunctional otherwise (other flag bits are
	// ignored, so trace-cache flag bytes pass through unmasked). The
	// state left behind must be byte-identical to the per-event calls in
	// the same order; the point of the method is that each backend runs a
	// concrete-receiver loop with no per-event interface dispatch, which
	// is what the sampling spine's throughput rides on (see batch.go and
	// DESIGN.md §12). len(flags) must be >= len(lines).
	FunctionalBatch(lines []memtypes.LineAddr, flags []uint8)
	Contains(line memtypes.LineAddr) (way int, ok bool)
	Stats() *Stats
	ResetStats()
	StorageBytes() int64
	// Snapshot and Restore serialize the backend's complete state (tags,
	// replacement/frequency metadata, stats, any attached policy) with a
	// leading version byte. Restore must reject malformed input with an
	// error — truncation, version skew, structural mismatch — and never
	// panic; on error the instance is unspecified and must be discarded.
	Snapshot(e *ckpt.Encoder) error
	Restore(d *ckpt.Decoder) error
	// CheckInvariants validates internal consistency (no duplicate
	// residents, metadata within bounds); tests call it after random
	// operation sequences and after restores.
	CheckInvariants() error
	// RegisterMetrics publishes the backend's statistics (and any
	// sub-component metrics, e.g. an attached policy's) into r under
	// prefix.
	RegisterMetrics(r *metrics.Registry, prefix string)
}

// Cache is the set-associative DRAM cache model.
type Cache struct {
	cfg    Config
	dev    *dram.Device // stacked DRAM holding tags-with-data
	nvm    *dram.Device // main memory behind the cache
	policy core.Policy

	sets     uint64
	setMask  uint64
	setShift uint
	ways     int

	// meta is the tag store findWay scans on every access, one packed
	// word per way, so a whole 2-way set fits in a quarter of a host
	// cache line.
	meta  []wayMeta
	lru   []uint64 // replacement stamps, used only with LRUReplacement
	clock uint64

	// touched keeps touchSets' loads live. It is not cache state: no
	// snapshot, invariant or result reads it, and it lives per instance
	// because concurrent simulations would race on a package-level sink.
	touched wayMeta

	devMap dram.Mapper // set -> device row (sets per DRAM row precomputed)
	nvmMap dram.Mapper // line -> NVM row

	stats   Stats
	candBuf []int
	probes  []int
}

// New builds the cache. The policy's geometry must match the configured
// sets/ways; mismatches panic, as do invalid configurations.
func New(cfg Config, policy core.Policy, dev, nvm *dram.Device) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := uint64(cfg.CapacityBytes / (int64(cfg.Ways) * memtypes.LineSize))
	n := sets * uint64(cfg.Ways)
	setBytes := cfg.Ways * memtypes.TagUnitSize
	upr := dev.Config().RowBytes / setBytes
	if upr < 1 {
		upr = 1
	}
	nvmUPR := nvm.Config().RowBytes / memtypes.LineSize
	if nvmUPR < 1 {
		nvmUPR = 1
	}
	c := &Cache{
		cfg:      cfg,
		dev:      dev,
		nvm:      nvm,
		policy:   policy,
		sets:     sets,
		setMask:  sets - 1,
		setShift: log2(sets),
		ways:     cfg.Ways,
		meta:     make([]wayMeta, n),
		devMap:   dev.Config().NewMapper(upr),
		nvmMap:   nvm.Config().NewMapper(nvmUPR),
		candBuf:  make([]int, 0, cfg.Ways),
		probes:   make([]int, 0, cfg.Ways),
	}
	if cfg.LRUReplacement {
		c.lru = make([]uint64, n)
	}
	return c
}

func log2(x uint64) uint {
	var n uint
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// Name identifies the configuration in reports.
func (c *Cache) Name() string {
	repl := "rand"
	if c.cfg.LRUReplacement {
		repl = "lru"
	}
	return fmt.Sprintf("%dway-%s-%s-%s", c.ways, c.cfg.Lookup, c.policy.Name(), repl)
}

// Stats returns the mutable statistics block.
func (c *Cache) Stats() *Stats { return &c.stats }

// ResetStats zeroes statistics (cache contents persist), for warmup.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// StorageBytes reports the SRAM metadata cost of the attached policy.
func (c *Cache) StorageBytes() int64 { return c.policy.StorageBytes() }

// policyMetricSource is the optional interface a policy implements to
// publish its own metrics (today: ACCORD's region-table diagnostics).
type policyMetricSource interface {
	RegisterMetrics(*metrics.Registry, string)
}

// RegisterMetrics implements Interface: the cache's own statistics under
// prefix, plus the attached policy's metrics under "policy" when it has
// any (the prefix the exported metric names have always used).
func (c *Cache) RegisterMetrics(r *metrics.Registry, prefix string) {
	c.stats.Register(r, prefix)
	if src, ok := c.policy.(policyMetricSource); ok {
		src.RegisterMetrics(r, "policy")
	}
}

// NumSets returns the set count.
func (c *Cache) NumSets() uint64 { return c.sets }

// Policy returns the attached way policy.
func (c *Cache) Policy() core.Policy { return c.policy }

// wayMeta is one way of the tag store the simulator keeps in host memory
// (the modeled machine keeps it in the DRAM array itself), packed into
// one word as tag<<2 | dirty<<1 | valid. The nway cache, Gemini and TDRAM
// share it.
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

// touchSets loads the first tag word of each line's set and returns the
// OR of the words. The loads are independent of one another and of the
// tag store's contents, so the processor issues them back to back and
// their misses overlap; the ops that follow then find their sets in the
// host's caches. Callers OR the result into a per-instance touched field
// so the compiler cannot drop the loads.
func touchSets(meta []wayMeta, lines []memtypes.LineAddr, setMask uint64, ways int) wayMeta {
	var acc wayMeta
	for _, line := range lines {
		acc |= meta[int(uint64(line)&setMask)*ways]
	}
	return acc
}

func (c *Cache) index(line memtypes.LineAddr) (set, tag uint64) {
	return uint64(line) & c.setMask, uint64(line) >> c.setShift
}

func (c *Cache) slot(set uint64, way int) int { return int(set)*c.ways + way }

func (c *Cache) lineOf(set, tag uint64) memtypes.LineAddr {
	return memtypes.LineAddr(tag<<c.setShift | set)
}

// findWay returns the way holding (set, tag), or -1.
func (c *Cache) findWay(set, tag uint64) int {
	base := int(set) * c.ways
	return matchWay(c.meta[base:base+c.ways], tag)
}

// Contains implements Interface (the simulator's idealized DCP source).
func (c *Cache) Contains(line memtypes.LineAddr) (way int, ok bool) {
	set, tag := c.index(line)
	w := c.findWay(set, tag)
	return w, w >= 0
}

// loc maps a set to its device row (all ways co-located, Figure 2b).
func (c *Cache) loc(set uint64) dram.Loc {
	return c.devMap.Map(set)
}

func (c *Cache) nvmLoc(line memtypes.LineAddr) dram.Loc {
	return c.nvmMap.Map(uint64(line))
}

// probeRead streams one 72-byte tag+data unit from the set's row; callers
// compute the set's Loc once per access and reuse it across probes.
func (c *Cache) probeRead(at int64, loc dram.Loc) int64 {
	c.stats.ProbeReads++
	return c.dev.Access(at, loc, memtypes.Read, memtypes.TagUnitSize).DataAt
}

// AccessRead services a demand read that missed the SRAM hierarchy.
func (c *Cache) AccessRead(at int64, line memtypes.LineAddr) ReadResult {
	set, tag := c.index(line)
	region := line.Region()
	loc := c.devMap.Map(set) // one mapping per access, shared by every probe
	actual := c.findWay(set, tag)
	hit := actual >= 0
	c.stats.Reads++

	var done int64
	var firstProbe int // the way probed first, -1 when no probe happened
	confirmedAt := at  // when every candidate way has been checked
	missKnownAt := at  // when the fill to memory can be launched

	// On a miss, the fill is launched when the first probe returns without
	// a tag match (alloy-style memory access prediction); the remaining
	// confirmation probes overlap the long-latency memory read, so miss
	// confirmation costs bandwidth, not serial latency — the property the
	// paper's Section V argument relies on (see DESIGN.md).
	switch c.cfg.Lookup {
	case LookupIdealized:
		// Oracle: one probe no matter what, and the oracle's probe is
		// assumed to cover the victim (1-way install cost, Figure 1c).
		done = c.probeRead(at, loc)
		confirmedAt = done
		missKnownAt = done
		if actual >= 0 {
			firstProbe = actual // never counted as a prediction
		} else {
			firstProbe = 0
		}

	case LookupParallel:
		cands := c.policy.CandidateWays(tag, c.candBuf)
		firstProbe = cands[0]
		done, confirmedAt = c.probeBurst(at, loc, cands, actual)
		missKnownAt = confirmedAt

	case LookupSerial:
		cands := c.policy.CandidateWays(tag, c.candBuf)
		firstProbe = cands[0]
		var first int64
		done, confirmedAt, first = c.probeSerial(at, loc, cands, actual)
		missKnownAt = first

	case LookupPerfect:
		if hit {
			done = c.probeRead(at, loc)
			confirmedAt = done
			missKnownAt = done
			firstProbe = actual
		} else {
			// Even a perfect predictor cannot know the line is absent:
			// the first probe reveals the miss, the remaining probes
			// confirm it in the background (Table I: N transfers).
			cands := c.policy.CandidateWays(tag, c.candBuf)
			firstProbe = cands[0]
			first := c.probeRead(at, loc)
			missKnownAt = first
			if len(cands) > 1 {
				_, confirmedAt = c.probeBurst(first, loc, cands[1:], actual)
			} else {
				confirmedAt = first
			}
			done = confirmedAt
		}

	default: // LookupPredicted
		pred := c.policy.PredictWay(set, tag, region)
		firstProbe = pred
		if hit {
			c.stats.Predictions++
			if pred == actual {
				c.stats.Correct++
			}
		}
		if !hit && c.policy.FilterMiss(set, tag) {
			// Metadata proves absence: no probes at all, and the fill
			// launches immediately.
			c.stats.FilteredMisses++
			confirmedAt = at
			missKnownAt = at
			done = at
			firstProbe = -1
		} else {
			first := c.probeRead(at, loc)
			missKnownAt = first
			if pred == actual {
				done, confirmedAt = first, first
			} else {
				// Mispredict (or miss): burst the remaining candidates.
				rest := c.remainingCandidates(tag, pred)
				done, confirmedAt = c.probeBurst(first, loc, rest, actual)
				if !hit || len(rest) == 0 {
					done = confirmedAt
				}
			}
		}
	}

	c.policy.ObserveAccess(set, tag, region, actual, hit)

	if hit {
		c.stats.ReadHits++
		c.stats.HitLatency.add(done - at)
		if c.cfg.LRUReplacement {
			// Replacement-state update is a write to the line's tag+data
			// unit in DRAM (footnote 2's bandwidth tax).
			c.lru[c.slot(set, actual)] = c.bump()
			c.stats.ReplStateOps++
			c.dev.Access(done, loc, memtypes.Write, memtypes.TagUnitSize)
		}
		return ReadResult{
			Done:          done,
			Hit:           true,
			Way:           uint8(actual),
			FirstProbeHit: firstProbe == actual,
		}
	}

	// Miss: fetch from NVM once the miss is confirmed, then install. The
	// lookup already streamed every candidate way except when the miss was
	// filtered by metadata, so the victim's data is normally on hand.
	//
	// The install (and any victim eviction) is issued at the confirmation
	// time rather than at NVM-data arrival: the fill's bandwidth is
	// consumed at the right rate, but the resource-reservation model must
	// not reserve buses hundreds of cycles in the future, which would
	// penalize unrelated earlier accesses (see DESIGN.md).
	victimProbed := firstProbe >= 0
	c.stats.NVMReads++
	nvmDone := c.nvm.Access(missKnownAt, c.nvmLoc(line), memtypes.Read, memtypes.LineSize).DataAt
	way := c.install(missKnownAt, loc, set, tag, region, false, victimProbed)
	if nvmDone < confirmedAt {
		// Data cannot be released before every way has been ruled out (a
		// later way could hold a newer dirty copy).
		nvmDone = confirmedAt
	}
	c.stats.MissLatency.add(nvmDone - at)
	return ReadResult{Done: nvmDone, Hit: false, Way: uint8(way)}
}

// remainingCandidates returns the candidate ways excluding the one already
// probed.
func (c *Cache) remainingCandidates(tag uint64, probed int) []int {
	cands := c.policy.CandidateWays(tag, c.candBuf)
	c.probes = c.probes[:0]
	for _, w := range cands {
		if w != probed {
			c.probes = append(c.probes, w)
		}
	}
	return c.probes
}

// probeBurst issues probes for all ways at once; it returns the cycle the
// target way's data arrives (max when there is no target) and the cycle
// the full burst completes (miss confirmation).
func (c *Cache) probeBurst(at int64, loc dram.Loc, ways []int, target int) (dataAt, allDone int64) {
	dataAt, allDone = at, at
	for _, w := range ways {
		t := c.probeRead(at, loc)
		if t > allDone {
			allDone = t
		}
		if w == target {
			dataAt = t
		}
	}
	if target < 0 {
		dataAt = allDone
	}
	return dataAt, allDone
}

// probeSerial issues dependent probes way by way, stopping at the target;
// firstDone is the completion of the first probe (when a fill can launch).
func (c *Cache) probeSerial(at int64, loc dram.Loc, ways []int, target int) (dataAt, allDone, firstDone int64) {
	t := at
	firstDone = at
	for i, w := range ways {
		t = c.probeRead(t, loc)
		if i == 0 {
			firstDone = t
		}
		if w == target {
			return t, t, firstDone
		}
	}
	return t, t, firstDone
}

func (c *Cache) bump() uint64 {
	c.clock++
	return c.clock
}

// install places (set, tag) into the cache at the steered (or LRU) way,
// writing the 72-byte unit and writing any dirty victim back to NVM.
// victimProbed says whether the lookup already streamed the victim's data;
// when it did not, the victim unit must be read before being overwritten.
// It returns the chosen way.
func (c *Cache) install(at int64, loc dram.Loc, set, tag uint64, region memtypes.RegionID, dirty, victimProbed bool) int {
	var way int
	if c.cfg.LRUReplacement {
		way = c.lruVictim(set, tag)
	} else {
		way = c.policy.InstallWay(set, tag, region)
	}
	s := c.slot(set, way)
	if !victimProbed {
		// Whether the slot even holds valid data is only discoverable by
		// reading its tag+data unit from the DRAM array.
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
	if c.cfg.LRUReplacement {
		c.lru[s] = c.bump()
	}
	c.stats.InstallWrites++
	c.dev.Access(at, loc, memtypes.Write, memtypes.TagUnitSize)
	c.policy.ObserveInstall(set, tag, region, way)
	return way
}

// lruVictim picks the least-recently-stamped candidate way.
func (c *Cache) lruVictim(set, tag uint64) int {
	cands := c.policy.CandidateWays(tag, c.candBuf)
	best := cands[0]
	for _, w := range cands[1:] {
		if c.lru[c.slot(set, w)] < c.lru[c.slot(set, best)] {
			best = w
		}
	}
	return best
}

// Writeback handles a dirty L3 eviction. With the paper's DCP+way
// extension the L3 already knows whether and where the line resides, so a
// resident line is updated with a single write and no probe; an absent
// line is installed (one victim-read plus one write).
func (c *Cache) Writeback(at int64, line memtypes.LineAddr) int64 {
	set, tag := c.index(line)
	region := line.Region()
	loc := c.devMap.Map(set)
	c.stats.Writebacks++
	if way := c.findWay(set, tag); way >= 0 {
		c.stats.WritebackHits++
		c.meta[c.slot(set, way)] |= metaDirty
		c.stats.WritebackWrites++
		res := c.dev.Access(at, loc, memtypes.Write, memtypes.TagUnitSize)
		if c.cfg.LRUReplacement {
			c.lru[c.slot(set, way)] = c.bump()
		}
		return res.DataAt
	}
	// Absent: write-allocate. The victim unit must be read before it is
	// overwritten (its tag and dirty state live in DRAM), which install
	// accounts for via victimProbed=false.
	c.install(at, loc, set, tag, region, true, false)
	return at
}

// CheckInvariants validates that no set holds duplicate tags and that
// SWS-restricted lines are in allowed ways; tests call it after random
// operation sequences.
func (c *Cache) CheckInvariants() error {
	buf := make([]int, 0, c.ways)
	seen := make([]uint64, 0, c.ways) // reused across sets; no per-set map
	for set := uint64(0); set < c.sets; set++ {
		seen = seen[:0]
		for w := 0; w < c.ways; w++ {
			m := c.meta[c.slot(set, w)]
			if !m.valid() {
				continue
			}
			for _, t := range seen {
				if t == m.tag() {
					return fmt.Errorf("dramcache: duplicate tag %#x in set %d", m.tag(), set)
				}
			}
			seen = append(seen, m.tag())
			ok := false
			for _, cw := range c.policy.CandidateWays(m.tag(), buf) {
				if cw == w {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("dramcache: tag %#x in non-candidate way %d of set %d", m.tag(), w, set)
			}
		}
	}
	return nil
}
