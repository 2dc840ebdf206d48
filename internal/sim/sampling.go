package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"accord/internal/cache"
	"accord/internal/ckpt"
	"accord/internal/dram"
	"accord/internal/dramcache"
	"accord/internal/memtypes"
	"accord/internal/metrics"
	"accord/internal/stats"
	"accord/internal/workloads"
)

// SMARTS-style interval sampling (see DESIGN.md §9). A sampled run splits
// the measured phase into fixed-length periods; most of each period is
// fast-forwarded in functional mode (state only, no timing), a short
// detailed segment re-warms the timing state the functional mode skipped
// (row buffers, MSHRs, busy intervals), and a short detailed segment is
// actually measured. Per-interval IPC/hit-rate/MPKI observations feed a
// Student-t confidence interval that can stop the run early once the
// estimate is tight enough.

// SamplingConfig configures interval sampling. Sampling is enabled when
// Period is positive; Config.Validate rejects inconsistent layouts.
type SamplingConfig struct {
	// Period is the per-core instruction length of one sampling interval.
	// Each period is laid out as [functional fast-forward | WarmLen
	// detailed unmeasured | DetailLen detailed measured]. The number of
	// intervals is MeasureInstr / Period.
	Period int64
	// DetailLen is the measured detailed window per period (must be
	// positive; DetailLen + WarmLen must not exceed Period).
	DetailLen int64
	// WarmLen is the detailed-but-unmeasured segment run before each
	// measured window to re-warm timing state the functional mode does
	// not touch. Zero is allowed but biases early measurements.
	WarmLen int64
	// MinIntervals is the minimum number of measured intervals before
	// early stopping may trigger (≥ 2 when TargetCI is set; the t
	// interval needs a variance estimate).
	MinIntervals int
	// TargetCI is the relative confidence-interval half-width (half/mean)
	// at which the run stops early, e.g. 0.05 for ±5%. Zero disables
	// early stopping: every planned interval runs.
	TargetCI float64
}

// sampleConfidence is the level every sampled CI is quoted at.
const sampleConfidence = 0.95

// Enabled reports whether interval sampling is configured.
func (sc SamplingConfig) Enabled() bool { return sc.Period > 0 }

// DefaultSampling returns a reasonable layout for a given period: 5% of
// each period measured in detail, half that re-warming timing state, and
// early stopping at a ±5% / 95% interval after 8 intervals.
func DefaultSampling(period int64) SamplingConfig {
	detail := period / 20
	if detail < 1 {
		detail = 1
	}
	return SamplingConfig{
		Period:       period,
		DetailLen:    detail,
		WarmLen:      period / 40,
		MinIntervals: 8,
		TargetCI:     0.05,
	}
}

// validate checks the sampling layout against the rest of the Config;
// Config.Validate calls it.
func (sc SamplingConfig) validate(c Config) error {
	if !sc.Enabled() {
		if sc.DetailLen != 0 || sc.WarmLen != 0 || sc.MinIntervals != 0 || sc.TargetCI != 0 {
			return errors.New("sim: sampling fields set but Sampling.Period is zero; set Period to enable interval sampling")
		}
		return nil
	}
	switch {
	case sc.DetailLen <= 0:
		return fmt.Errorf("sim: sampling DetailLen %d must be positive", sc.DetailLen)
	case sc.WarmLen < 0:
		return fmt.Errorf("sim: sampling WarmLen %d must be >= 0", sc.WarmLen)
	case sc.DetailLen+sc.WarmLen > sc.Period:
		return fmt.Errorf("sim: sampling DetailLen %d + WarmLen %d exceed Period %d",
			sc.DetailLen, sc.WarmLen, sc.Period)
	case sc.MinIntervals < 0:
		return errors.New("sim: sampling MinIntervals must be >= 0")
	case sc.TargetCI < 0 || sc.TargetCI >= 1 || math.IsNaN(sc.TargetCI):
		return fmt.Errorf("sim: sampling TargetCI %v must be in [0, 1)", sc.TargetCI)
	case sc.TargetCI > 0 && sc.MinIntervals < 2:
		return fmt.Errorf("sim: sampling TargetCI %v needs MinIntervals >= 2 (a confidence interval needs a variance estimate)", sc.TargetCI)
	}
	if !c.DisableAdaptiveBudgets {
		return errors.New("sim: sampling requires DisableAdaptiveBudgets: adaptive windows would silently override the Period-by-intervals layout derived from MeasureInstr")
	}
	if c.EpochInstr > 0 {
		return errors.New("sim: sampling and EpochInstr both record a metric series over the same registry; sampled runs get a per-interval series automatically")
	}
	if c.MeasureInstr < sc.Period {
		return fmt.Errorf("sim: MeasureInstr %d holds no complete sampling period %d", c.MeasureInstr, sc.Period)
	}
	if max := c.MeasureInstr / sc.Period; int64(sc.MinIntervals) > max {
		return fmt.Errorf("sim: sampling MinIntervals %d needs %d instructions, MeasureInstr is %d",
			sc.MinIntervals, int64(sc.MinIntervals)*sc.Period, c.MeasureInstr)
	}
	return nil
}

// MetricCI is one sampled estimate: the mean of the per-interval
// observations and its Student-t confidence-interval half-width. OK is
// false (and Half meaningless) with fewer than two observations,
// following the stats package's undefined-not-zero convention.
type MetricCI struct {
	Mean float64
	Half float64
	N    int
	OK   bool
}

// Valid reports whether Mean is a usable estimate (at least one
// observation; OK additionally requires a CI).
func (m MetricCI) Valid() bool { return m.N > 0 && !math.IsNaN(m.Mean) }

// SampleSummary reports how a sampled run went.
type SampleSummary struct {
	// Intervals is the number of measured intervals that actually ran;
	// Planned is how many the budget allowed.
	Intervals int
	Planned   int
	// Converged is true when the run stopped early because the IPC
	// interval tightened below TargetCI.
	Converged bool
	// Confidence is the level the intervals are quoted at.
	Confidence float64

	IPC     MetricCI // mean of per-core window IPCs, per interval
	HitRate MetricCI // L4 demand-read hit rate over the measured windows
	MPKI    MetricCI // L4 misses per kilo-instruction over the measured windows

	// Series holds the per-interval observations in commit order — the
	// population the CIs above summarize, exported as the sampled run's
	// metric series (one sample per interval).
	Series []IntervalObs
}

// IntervalObs is one committed sampling interval's observation. The OK
// flags follow the undefined-not-zero convention: an interval whose
// measured window saw no L4 reads contributes no hit-rate observation,
// and the value field is left zero rather than NaN so the struct is
// JSON-safe.
type IntervalObs struct {
	// Index is the 0-based interval index.
	Index int
	// Instructions and Cycles are the cumulative measured-window clocks
	// through this interval (instructions summed over cores, cycles as
	// the sum of per-interval longest windows).
	Instructions int64
	Cycles       int64

	IPC       float64 // mean per-core window IPC
	IPCOK     bool
	HitRate   float64 // L4 demand-read hit rate over the measured window
	HitRateOK bool
	MPKI      float64 // L4 misses per kilo-instruction over the measured window
	MPKIOK    bool
}

// metricValues renders the observation as registry-style gauge values
// (nil pointer = undefined), the form the export schema shares with
// epoch series samples.
func (o IntervalObs) metricValues() []metrics.Value {
	gauge := func(name string, v float64, ok bool) metrics.Value {
		out := metrics.Value{Name: name, Kind: metrics.KindGauge.String()}
		if ok {
			val := v
			out.Value = &val
		}
		return out
	}
	return []metrics.Value{
		gauge("sampling.interval_ipc", o.IPC, o.IPCOK),
		gauge("sampling.interval_hit_rate", o.HitRate, o.HitRateOK),
		gauge("sampling.interval_mpki", o.MPKI, o.MPKIOK),
	}
}

// sampledSeriesData synthesizes the exportable per-interval series from
// committed observations. It is built after every goroutine of a
// sampled run has joined — unlike the epoch series, it never snapshots
// the live registry mid-run, which would race with the spine.
func sampledSeriesData(series []IntervalObs) *metrics.SeriesData {
	samples := make([]metrics.Sample, len(series))
	for i, o := range series {
		samples[i] = metrics.Sample{
			Epoch:        o.Index,
			Instructions: o.Instructions,
			Cycles:       o.Cycles,
			Values:       o.metricValues(),
		}
	}
	return &metrics.SeriesData{EveryInstr: 1, Phase: "interval", Samples: samples}
}

// BatchFunctional implements cpu.BatchFunctionalMemory: one interface
// call hands a whole stream window to the backend, whose batch loop
// applies the same per-event transitions, touching each group's tag sets
// first (dramcache/batch.go). The flag convention matches by construction:
// dramcache.FunctionalWrite == workloads.FlagWrite, and backends ignore
// the remaining bits (FlagDep is a core-side stall hint).
func (m memAdapter) BatchFunctional(lines []memtypes.LineAddr, flags []uint8) {
	m.l4.FunctionalBatch(lines, flags)
}

// BatchFunctional implements cpu.BatchFunctionalMemory: the SRAM
// hierarchy's state transitions are already timing-free (Access and
// FillFromBelow mutate identically whatever the clock says), so each
// event runs the timed path's hierarchy calls with the L4 calls swapped
// for their functional counterparts.
func (m hierAdapter) BatchFunctional(lines []memtypes.LineAddr, flags []uint8) {
	flags = flags[:len(lines)]
	for i, line := range lines {
		write := flags[i]&workloads.FlagWrite != 0
		out := m.h.Access(line, write)
		m.sinkFunctional(out.Writebacks)
		if out.Level < 4 {
			continue
		}
		way, _ := m.l4.AccessReadFunctional(line)
		m.sinkFunctional(m.h.FillFromBelow(line, write, cache.DCP{Present: true, Way: way}))
	}
}

func (m hierAdapter) sinkFunctional(wbs []cache.Writeback) {
	for _, wb := range wbs {
		m.l4.WritebackFunctional(wb.Line)
	}
}

// funcRoundQuantum is the per-core instruction granule of the
// multi-core functional round-robin. It must be a fixed constant: window
// sizes depend on the stream kind (the generator and FixedStream serve
// one event, a trace-cache cursor the rest of its chunk) and, for a
// cursor, on how much of the stream is already recorded, so interleaving
// by window would make the same run's state trajectory depend on what
// feeds it. Interleaving by a fixed instruction quantum is independent
// of window geometry, so every stream kind, recording or replaying,
// yields the same trajectory.
const funcRoundQuantum = 1 << 13

// advanceFunctional fast-forwards every core i to targets[i] total
// retired instructions, round-robin in turns of funcRoundQuantum
// instructions per core (functional mode has no clock to order by, so
// any fixed deterministic interleaving is valid). No overshoot pacing:
// without timing there is no shared-resource contention for finished
// cores to sustain.
func (s *System) advanceFunctional(targets []int64) {
	s.ensureRunBuffers()
	done := s.done
	remaining := 0
	for i, c := range s.cores {
		done[i] = c.Instructions() >= targets[i]
		if !done[i] {
			remaining++
		}
	}
	for remaining > 0 {
		for i, c := range s.cores {
			if done[i] {
				continue
			}
			turn := min(c.Instructions()+funcRoundQuantum, targets[i])
			for c.Instructions() < turn {
				c.StepFunctionalBatch(turn)
			}
			if c.Instructions() >= targets[i] {
				done[i] = true
				remaining--
			}
		}
	}
}

// resetIntervalState puts the system's timing and statistics state into
// the canonical interval-start condition: zeroed component stats, fresh
// device timing (row buffers, busy intervals, write backlogs), and cores
// at cycle zero with empty MSHRs and cold translation memos. Sampled
// runs apply it at every interval boundary, so a measured window's
// starting state is a pure function of the functional state at its
// boundary — the property that makes worker-count-independent results
// possible (DESIGN.md §12). A Snapshot taken right after it is the
// interval boundary's blob: its timing and statistics sections are all
// zero, so restoring it reproduces the reset.
func (s *System) resetIntervalState() {
	s.l4.ResetStats()
	s.hbm.ResetStats()
	s.hbm.ResetTiming()
	s.pcm.ResetStats()
	s.pcm.ResetTiming()
	if s.l3 != nil {
		s.l3.ResetStats()
	}
	for _, c := range s.cores {
		c.ResetSampleTiming()
	}
}

// intervalResult is everything one measured interval contributes to the
// sampled run, captured on the fork that executed the detailed legs so
// commit can fold it in without touching live component state.
type intervalResult struct {
	index int
	// holder or blob carries the boundary state the detailed legs started
	// from, as a pooled in-memory copy or a boundary snapshot, and buf the
	// entry buffer holding a blob the lattice loaded. finishSampled
	// copies or restores the last committed one to canonicalize the final
	// system state.
	holder *System
	blob   []byte
	buf    *[]byte

	// Per-core detail-leg end state, copied out of the run buffers.
	endInstr  []int64
	endReads  []uint64
	endWrites []uint64
	endDep    []uint64
	endMshr   []uint64
	winInstr  []int64 // measured-window instructions (finish points)
	winCyc    []int64 // measured-window cycles

	// Component stat deltas over warm+detail (state was reset at the
	// boundary, so the totals ARE the deltas).
	l4    dramcache.Stats
	hbm   dram.Stats
	pcm   dram.Stats
	l3    cache.Stats
	hasL3 bool

	// Measured-window L4 demand-read deltas (baseline after the warm
	// leg, so re-warm traffic is excluded from hit rate and MPKI).
	winReads uint64
	winHits  uint64
}

// measureInterval runs the detailed warm + measured legs of one interval
// from the current (boundary) state and captures the result. Leg targets
// are absolute offsets from the boundary position — warm ends at B+Warm,
// detail at B+Warm+Detail — never chained off the previous leg's actual
// end, so overshoot cannot accumulate and the detail leg's final stop
// event is the same one a single functional advance to B+Warm+Detail
// would stop at (the crossing of a monotone threshold over the same
// event sequence).
func (s *System) measureInterval(sc SamplingConfig) *intervalResult {
	n := len(s.cores)
	r := &intervalResult{
		endInstr:  make([]int64, n),
		endReads:  make([]uint64, n),
		endWrites: make([]uint64, n),
		endDep:    make([]uint64, n),
		endMshr:   make([]uint64, n),
		winInstr:  make([]int64, n),
		winCyc:    make([]int64, n),
	}
	targets := make([]int64, n)
	base := make([]int64, n)
	for i, c := range s.cores {
		base[i] = c.Instructions()
	}
	// Detailed but unmeasured: re-warm row buffers, MSHRs, and the other
	// timing state the boundary reset cleared.
	if sc.WarmLen > 0 {
		for i := range targets {
			targets[i] = base[i] + sc.WarmLen
		}
		s.advanceUntil(targets)
	}
	// Detailed and measured.
	for _, c := range s.cores {
		c.MarkWindow()
	}
	st := s.l4.Stats()
	reads0, hits0 := st.Reads, st.ReadHits
	for i := range targets {
		targets[i] = base[i] + sc.WarmLen + sc.DetailLen
	}
	finish := s.advanceUntil(targets)
	for i, c := range s.cores {
		r.winInstr[i] = finish[i].instr
		r.winCyc[i] = finish[i].cycles
		r.endInstr[i] = c.Instructions()
		r.endReads[i], r.endWrites[i], r.endDep[i], r.endMshr[i] = c.Counters()
	}
	r.winReads, r.winHits = st.Reads-reads0, st.ReadHits-hits0
	r.l4 = *st
	r.hbm = s.hbm.Stats()
	r.pcm = s.pcm.Stats()
	if s.l3 != nil {
		r.hasL3 = true
		r.l3 = s.l3.Stats()
	}
	return r
}

// sampleState accumulates committed interval results. All mutation goes
// through commit, which is only ever called from one goroutine (the
// caller's), strictly in interval order — so the observation sequence,
// the early-stop decision, and every aggregate below are identical at
// any worker count.
type sampleState struct {
	sc      SamplingConfig
	planned int
	wlName  string

	intervals  int
	converged  bool
	mInstr     int64
	mCycles    int64
	ipcObs     []float64
	hitObs     []float64
	mpkiObs    []float64
	coreIPCSum []float64
	coreIPCN   []int
	series     []IntervalObs

	// Component stats summed over committed intervals; finishSampled
	// imposes them on the final system so the exported registry snapshot
	// reflects exactly the committed measurements.
	aggL4  dramcache.Stats
	aggHBM dram.Stats
	aggPCM dram.Stats
	aggL3  cache.Stats

	mshrSum     []uint64
	winInstrSum []int64
	winCycSum   []int64

	// last is the most recently committed interval; its holder or blob
	// anchors the final-state canonicalization.
	last *intervalResult
}

func newSampleState(sc SamplingConfig, planned, nCores int, wlName string) *sampleState {
	return &sampleState{
		sc:          sc,
		planned:     planned,
		wlName:      wlName,
		ipcObs:      make([]float64, 0, planned),
		hitObs:      make([]float64, 0, planned),
		mpkiObs:     make([]float64, 0, planned),
		coreIPCSum:  make([]float64, nCores),
		coreIPCN:    make([]int, nCores),
		series:      make([]IntervalObs, 0, planned),
		mshrSum:     make([]uint64, nCores),
		winInstrSum: make([]int64, nCores),
		winCycSum:   make([]int64, nCores),
	}
}

// commit folds interval r — which MUST be the next interval in order —
// into the accumulated state and reports whether sampling should stop
// (converged below TargetCI, or the planned budget is exhausted). The
// early-stop test runs over the ordered committed prefix only, so the
// stopping interval count is a pure function of the observation
// sequence, not of how much speculative work was in flight.
func (st *sampleState) commit(r *intervalResult) (stop bool) {
	var instr, maxCyc int64
	ipcSum, ipcN := 0.0, 0
	for i := range r.winInstr {
		ins, cyc := r.winInstr[i], r.winCyc[i]
		instr += ins
		if cyc > maxCyc {
			maxCyc = cyc
		}
		if cyc > 0 {
			ipc := float64(ins) / float64(cyc)
			ipcSum += ipc
			ipcN++
			st.coreIPCSum[i] += ipc
			st.coreIPCN[i]++
		}
		st.mshrSum[i] += r.endMshr[i]
		st.winInstrSum[i] += ins
		st.winCycSum[i] += cyc
	}
	st.mInstr += instr
	st.mCycles += maxCyc
	st.intervals++

	obs := IntervalObs{Index: r.index, Instructions: st.mInstr, Cycles: st.mCycles}
	if ipcN > 0 {
		obs.IPC, obs.IPCOK = ipcSum/float64(ipcN), true
		st.ipcObs = append(st.ipcObs, obs.IPC)
	}
	// Hit rate and MPKI come from L4 stat deltas across the measured
	// window only. An interval with no L4 reads contributes no hit-rate
	// observation — undefined, not zero.
	dr, dh := r.winReads, r.winHits
	if dr > 0 {
		obs.HitRate, obs.HitRateOK = float64(dh)/float64(dr), true
		st.hitObs = append(st.hitObs, obs.HitRate)
	}
	if instr > 0 {
		obs.MPKI, obs.MPKIOK = float64(dr-dh)*1000/float64(instr), true
		st.mpkiObs = append(st.mpkiObs, obs.MPKI)
	}
	st.series = append(st.series, obs)

	st.aggL4.Add(r.l4)
	st.aggHBM.Add(r.hbm)
	st.aggPCM.Add(r.pcm)
	if r.hasL3 {
		st.aggL3.Add(r.l3)
	}
	st.last = r

	if st.sc.TargetCI > 0 && st.intervals >= st.sc.MinIntervals {
		if mean, half, ok := stats.MeanCI(st.ipcObs, sampleConfidence); ok && mean > 0 && half/mean <= st.sc.TargetCI {
			st.converged = true
			return true
		}
	}
	return st.intervals >= st.planned
}

// RunSampled executes a sampled run: functional warmup, then alternating
// functional/detailed windows per SamplingConfig, collecting
// per-interval observations until the budget is exhausted or the IPC
// confidence interval tightens below TargetCI. Run dispatches here when
// sampling is enabled.
//
// Every interval's detailed legs run on a fork off the functional spine
// (sampling_parallel.go); Config.SampleWorkers sizes the worker pool.
// Every worker count produces identical Results — same observation
// sequence, same summary, same final registry snapshot — by
// construction; see DESIGN.md §12. RunSampled panics before doing any
// work when the system can neither copy nor snapshot its functional
// state, since then no interval can be forked.
//
// Config.SpineCheckpointDir additionally memoizes the spine through the
// checkpoint lattice (spine.go, DESIGN.md §14): the spine saves boundary
// 0 (every Config.SpineStride-th boundary when set) in line, and later
// runs probe every boundary, so a re-run replaces warmup, and with a
// stride the functional fast-forward, with restores. Warmup itself is
// driven lazily by the drivers — a lattice hit at boundary 0 skips it
// entirely, since warmup's effects are inside the restored snapshot.
func (s *System) RunSampled(wlName string) Result {
	sc := s.cfg.Sampling
	if !sc.Enabled() {
		panic("sim: RunSampled without Sampling.Period")
	}
	start := time.Now()

	planned := int(max(s.cfg.MeasureInstr/sc.Period, 1))

	st := newSampleState(sc, planned, len(s.cores), wlName)

	workers := s.cfg.SampleWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > planned {
		workers = planned
	}
	lat, pool := s.forkPlan(wlName)
	s.work = SampleWork{Workers: workers}
	s.runSampledParallel(st, workers, lat, pool)
	if lat != nil {
		s.work.SpineSaveTime = time.Duration(lat.saveNS)
		s.work.LatticeHits = lat.hits
		s.work.LatticeMisses = lat.misses
	}
	s.work.Committed = st.intervals
	s.work.Discarded = s.work.Dispatched - st.intervals

	res := s.finishSampled(st, wlName)
	s.work.WallTime = time.Since(start)
	return res
}

// finishSampled canonicalizes the final system state, imposes the
// committed aggregates, and builds the Result. The canonical final state
// is "the last committed interval's boundary, plus its warm+detail
// events executed functionally": copying the boundary's holder (or
// restoring its blob, which leaves the same state) erases everything any
// speculative or discarded work did to the live system (including policy
// diagnostic counters inside the L4 state), and the functional
// re-advance lands exactly where running those legs functionally from
// the boundary would (§9). Component stats are then overwritten with the
// sums over committed intervals, so the registry snapshot the Result
// exports is identical at every worker count.
func (s *System) finishSampled(st *sampleState, wlName string) Result {
	sc := st.sc
	if last := st.last; last != nil {
		t0 := time.Now()
		var err error
		if last.holder != nil {
			err = s.copyFunctionalFrom(last.holder)
		} else {
			// A lattice hit, verified by its load, or a snapshot this
			// process encoded.
			err = s.restore(ckpt.NewDecoderVerified(last.blob), st.wlName)
		}
		if err != nil {
			panic(fmt.Sprintf("sim: final boundary restore failed: %v", err))
		}
		if adv := sc.WarmLen + sc.DetailLen; adv > 0 {
			targets := make([]int64, len(s.cores))
			for i, c := range s.cores {
				targets[i] = c.Instructions() + adv
			}
			s.advanceFunctional(targets)
		}
		s.work.SpineTime += time.Since(t0)
		last.holder, last.blob, last.buf = nil, nil, nil
		*s.l4.Stats() = st.aggL4
		s.hbm.SetStats(st.aggHBM)
		s.pcm.SetStats(st.aggPCM)
		if s.l3 != nil {
			s.l3.SetStats(st.aggL3)
		}
		for i, c := range s.cores {
			c.SetSampledFinal(last.endInstr[i], last.endReads[i], last.endWrites[i],
				last.endDep[i], st.mshrSum[i], st.winInstrSum[i], st.winCycSum[i])
		}
	}

	sum := &SampleSummary{
		Intervals:  st.intervals,
		Planned:    st.planned,
		Converged:  st.converged,
		Confidence: sampleConfidence,
		IPC:        metricCI(st.ipcObs),
		HitRate:    metricCI(st.hitObs),
		MPKI:       metricCI(st.mpkiObs),
		Series:     st.series,
	}
	s.sample = sum

	res := Result{
		Config:   s.cfg.Name,
		Workload: wlName,
		L4:       *s.l4.Stats(),
		HBM:      s.hbm.Stats(),
		PCM:      s.pcm.Stats(),
		Sampled:  sum,
	}
	if s.l3 != nil {
		res.L3 = s.l3.Stats()
	}
	for i := range s.cores {
		if st.coreIPCN[i] > 0 {
			res.IPC = append(res.IPC, st.coreIPCSum[i]/float64(st.coreIPCN[i]))
		} else {
			res.IPC = append(res.IPC, 0)
		}
	}
	res.Cycles = st.mCycles
	res.Instructions = st.mInstr
	for _, c := range s.cores {
		reads, writes, _, _ := c.Counters()
		res.Events += int64(reads + writes)
		res.InstructionsTotal += c.Instructions()
	}
	s.resIPC = res.IPC
	rm := &metrics.RunMetrics{Final: s.reg.Snapshot()}
	rm.Series = sampledSeriesData(st.series)
	res.Metrics = rm
	return res
}

// metricCI folds per-interval observations into a MetricCI.
func metricCI(obs []float64) MetricCI {
	mean, half, ok := stats.MeanCI(obs, sampleConfidence)
	return MetricCI{Mean: mean, Half: half, N: len(obs), OK: ok}
}

// registerSamplingMetrics publishes the sampled estimates; the gauges
// read NaN (exported as absent) until the run completes.
func (s *System) registerSamplingMetrics() {
	r := s.reg
	g := func(name, help string, fn func(*SampleSummary) float64) {
		r.GaugeFunc(name, help, func() float64 {
			if s.sample == nil {
				return math.NaN()
			}
			return fn(s.sample)
		})
	}
	g("sampling.intervals", "measured sampling intervals run", func(ss *SampleSummary) float64 {
		return float64(ss.Intervals)
	})
	g("sampling.planned_intervals", "sampling intervals the budget allowed", func(ss *SampleSummary) float64 {
		return float64(ss.Planned)
	})
	g("sampling.converged", "1 when the run stopped early at TargetCI, else 0", func(ss *SampleSummary) float64 {
		if ss.Converged {
			return 1
		}
		return 0
	})
	ci := func(prefix, what string, sel func(*SampleSummary) MetricCI) {
		g("sampling."+prefix+"_mean", "sampled mean of "+what+" over measured intervals", func(ss *SampleSummary) float64 {
			m := sel(ss)
			if !m.Valid() {
				return math.NaN()
			}
			return m.Mean
		})
		g("sampling."+prefix+"_ci_half", "Student-t CI half-width of "+what+" (absent below two intervals)", func(ss *SampleSummary) float64 {
			m := sel(ss)
			if !m.OK {
				return math.NaN()
			}
			return m.Half
		})
	}
	ci("ipc", "mean per-core IPC", func(ss *SampleSummary) MetricCI { return ss.IPC })
	ci("hit_rate", "L4 demand-read hit rate", func(ss *SampleSummary) MetricCI { return ss.HitRate })
	ci("mpki", "L4 misses per kilo-instruction", func(ss *SampleSummary) MetricCI { return ss.MPKI })
}
