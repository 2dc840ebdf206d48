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
//
// Each bundled organization writes every state change once, in one state
// transition per operation. AccessRead and Writeback run the transition
// and charge the record it returns to the devices; AccessReadFunctional
// and WritebackFunctional run it alone, for functional fast-forwarding
// (DESIGN.md §9). A functional access therefore mutates exactly the state
// a timed one does — tags, valid/dirty bits, replacement stamps and hints,
// and the attached policy's tables, counters and RNG — while touching
// neither device (no probes, busy intervals or row buffers) and no Stats
// field. Warm-state checkpoints zero Stats at the warmup boundary
// (ResetStats) and never include device timing, so a functional run
// leaves warm state byte-identical to a detailed run of the same events;
// the differential tests in internal/sim enforce this.
//
// The policy calls are part of the transition, in a fixed order:
// PredictWay, then FilterMiss on a miss (both for predicted lookups
// only), ObserveAccess, then InstallWay (or the LRU victim choice) and
// ObserveInstall. Policies draw from a checkpointed RNG and bump
// checkpointed counters inside those calls, so skipping or reordering one
// would silently fork the state. Only CandidateWays, pure for every
// policy, is left out: the timed path asks it for probe schedules after
// the transition.
type Interface interface {
	Name() string
	AccessRead(at int64, line memtypes.LineAddr) ReadResult
	Writeback(at int64, line memtypes.LineAddr) int64
	// AccessReadFunctional and WritebackFunctional are the state-only
	// counterparts of AccessRead/Writeback: no device traffic, no Stats,
	// no timestamps. AccessReadFunctional returns what ReadResult.Way and
	// Hit would, so the SRAM hierarchy's DCP state warms identically. A
	// functional op sequence must leave Snapshot-identical state to the
	// same detailed sequence (stats reset at the comparison point).
	AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool)
	WritebackFunctional(line memtypes.LineAddr)
	// FunctionalBatch applies a run of functional operations in one call:
	// lines[i] is a WritebackFunctional when flags[i]&FunctionalWrite is
	// set, an AccessReadFunctional otherwise (other flag bits are
	// ignored, so trace-cache flag bytes pass through unmasked). The
	// state left behind must be byte-identical to the per-event calls in
	// the same order. The sampling spine hands whole trace-cache windows
	// here, and a backend may order its host-memory loads ahead of the ops
	// (see batch.go and DESIGN.md §12). len(flags) must be >= len(lines).
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
	tagStore
	cfg    Config
	policy core.Policy

	lru   []uint64 // replacement stamps, used only with LRUReplacement
	clock uint64

	candBuf []int
	probes  []int
}

// New builds the cache. The policy's geometry must match the configured
// sets/ways; mismatches panic, as do invalid configurations.
func New(cfg Config, policy core.Policy, dev, nvm *dram.Device) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		tagStore: newTagStore(cfg.CapacityBytes, cfg.Ways, memtypes.TagUnitSize, dev, nvm),
		cfg:      cfg,
		policy:   policy,
		candBuf:  make([]int, 0, cfg.Ways),
		probes:   make([]int, 0, cfg.Ways),
	}
	if cfg.LRUReplacement {
		c.lru = make([]uint64, len(c.meta))
	}
	return c
}

// Name identifies the configuration in reports.
func (c *Cache) Name() string {
	repl := "rand"
	if c.cfg.LRUReplacement {
		repl = "lru"
	}
	return fmt.Sprintf("%dway-%s-%s-%s", c.ways, c.cfg.Lookup, c.policy.Name(), repl)
}

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

// read is the state transition of a demand read.
func (c *Cache) read(set, tag uint64, region memtypes.RegionID) outcome {
	a := outcome{hit: c.findWay(set, tag)}
	hit := a.hit >= 0
	// Only the predicted lookup consults the policy before probing; the
	// other modes' probe schedules come from the pure CandidateWays.
	if c.cfg.Lookup == LookupPredicted {
		a.pred = c.policy.PredictWay(set, tag, region)
		if !hit {
			a.filtered = c.policy.FilterMiss(set, tag)
		}
	}
	c.policy.ObserveAccess(set, tag, region, a.hit, hit)
	if !hit {
		a.way, a.replaced = c.install(set, tag, region, false)
		return a
	}
	a.way = a.hit
	if c.cfg.LRUReplacement {
		c.lru[c.slot(set, a.hit)] = c.bump()
	}
	return a
}

// writeback is the state transition of a dirty L3 eviction: a resident
// line turns dirty, an absent one is installed dirty (write-allocate).
func (c *Cache) writeback(set, tag uint64, region memtypes.RegionID) outcome {
	a := outcome{hit: c.findWay(set, tag)}
	if a.hit < 0 {
		a.way, a.replaced = c.install(set, tag, region, true)
		return a
	}
	a.way = a.hit
	s := c.slot(set, a.hit)
	c.meta[s] |= metaDirty
	if c.cfg.LRUReplacement {
		c.lru[s] = c.bump()
	}
	return a
}

// install places (set, tag) into the steered (or LRU) way and returns the
// way and what it replaced.
func (c *Cache) install(set, tag uint64, region memtypes.RegionID, dirty bool) (int, wayMeta) {
	var way int
	if c.cfg.LRUReplacement {
		way = c.lruVictim(set, tag)
	} else {
		way = c.policy.InstallWay(set, tag, region)
	}
	replaced := c.fill(set, tag, way, dirty)
	if c.cfg.LRUReplacement {
		c.lru[c.slot(set, way)] = c.bump()
	}
	c.policy.ObserveInstall(set, tag, region, way)
	return way, replaced
}

func (c *Cache) bump() uint64 {
	c.clock++
	return c.clock
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

// AccessReadFunctional implements Interface.
func (c *Cache) AccessReadFunctional(line memtypes.LineAddr) (way uint8, hit bool) {
	set, tag := c.index(line)
	a := c.read(set, tag, line.Region())
	return uint8(a.way), a.hit >= 0
}

// WritebackFunctional implements Interface.
func (c *Cache) WritebackFunctional(line memtypes.LineAddr) {
	set, tag := c.index(line)
	c.writeback(set, tag, line.Region())
}

// AccessRead services a demand read that missed the SRAM hierarchy.
func (c *Cache) AccessRead(at int64, line memtypes.LineAddr) ReadResult {
	set, tag := c.index(line)
	loc := c.devMap.Map(set) // one mapping per access, shared by every probe
	a := c.read(set, tag, line.Region())
	actual := a.hit
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
		pred := a.pred
		firstProbe = pred
		if hit {
			c.stats.Predictions++
			if pred == actual {
				c.stats.Correct++
			}
		}
		if a.filtered {
			// Metadata proves absence: no probes at all, and the fill
			// launches immediately.
			c.stats.FilteredMisses++
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

	if hit {
		c.stats.ReadHits++
		c.stats.HitLatency.add(done - at)
		if c.cfg.LRUReplacement {
			// Replacement-state update is a write to the line's tag+data
			// unit in DRAM (footnote 2's bandwidth tax).
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
	nvmDone := c.nvmRead(missKnownAt, line)
	c.installTraffic(missKnownAt, loc, set, a.replaced, firstProbe >= 0)
	if nvmDone < confirmedAt {
		// Data cannot be released before every way has been ruled out (a
		// later way could hold a newer dirty copy).
		nvmDone = confirmedAt
	}
	c.stats.MissLatency.add(nvmDone - at)
	return ReadResult{Done: nvmDone, Hit: false, Way: uint8(a.way)}
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

// Writeback handles a dirty L3 eviction. With the paper's DCP+way
// extension the L3 already knows whether and where the line resides, so a
// resident line is updated with a single write and no probe; an absent
// line is installed (one victim-read plus one write).
func (c *Cache) Writeback(at int64, line memtypes.LineAddr) int64 {
	set, tag := c.index(line)
	loc := c.devMap.Map(set)
	c.stats.Writebacks++
	a := c.writeback(set, tag, line.Region())
	if a.hit >= 0 {
		return c.writebackHit(at, loc, memtypes.TagUnitSize)
	}
	// Absent: write-allocate. The victim unit must be read before it is
	// overwritten (its tag and dirty state live in DRAM).
	c.installTraffic(at, loc, set, a.replaced, false)
	return at
}

// CheckInvariants validates that no set holds duplicate tags and that
// SWS-restricted lines are in allowed ways; tests call it after random
// operation sequences.
func (c *Cache) CheckInvariants() error {
	if err := c.checkTags("dramcache"); err != nil {
		return err
	}
	buf := make([]int, 0, c.ways)
	for set := uint64(0); set < c.sets; set++ {
		for w := 0; w < c.ways; w++ {
			m := c.meta[c.slot(set, w)]
			if !m.valid() {
				continue
			}
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
