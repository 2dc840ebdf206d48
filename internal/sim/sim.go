// Package sim wires the full system of Table III — 16 cores, virtual
// memory, a gigascale DRAM cache in stacked DRAM, and PCM-like main
// memory — and runs workloads through it, producing the hit-rate,
// way-prediction, bandwidth, and weighted-speedup numbers the paper's
// tables and figures report.
package sim

import (
	"errors"
	"fmt"
	"math"

	"accord/internal/cache"
	"accord/internal/core"
	"accord/internal/cpu"
	"accord/internal/dram"
	"accord/internal/dramcache"
	"accord/internal/memtypes"
	"accord/internal/metrics"
	"accord/internal/vm"
	"accord/internal/workloads"
)

// PolicyFactory builds a way policy for a given cache geometry.
type PolicyFactory func(geom core.Geometry, seed int64) core.Policy

// Config describes one system configuration to simulate.
type Config struct {
	Name string

	Cores int

	// Scale divides the full-size capacities (L4, NVM, workload
	// footprints follow automatically since they are cache-relative).
	// Scale 1 simulates the paper's actual 4 GB configuration.
	Scale int64

	// L4CapacityFull is the unscaled DRAM cache capacity (default 4 GB).
	L4CapacityFull int64
	Ways           int
	Lookup         dramcache.Lookup
	LRUReplacement bool
	// Backend selects the L4 organization by registry name ("nway", "ca",
	// "banshee", "gemini", "tdram", or any externally registered backend).
	// Empty means "nway". Ways/Lookup/LRUReplacement/Policy apply only to
	// backends that use them.
	Backend string

	// FullHierarchy models the on-chip SRAM levels explicitly: workload
	// events traverse per-core L1/L2 and a shared L3 (with DCP+way bits)
	// before reaching the DRAM cache, and L3 dirty evictions become the
	// L4 writebacks. The default (false) drives the L4 with post-L3 miss
	// streams directly, which is what the Table IV MPKI calibration
	// describes; full-hierarchy mode exercises the complete substrate.
	FullHierarchy bool
	// Policy builds the way-steering/prediction policy; defaults to the
	// unbiased random policy when nil.
	Policy PolicyFactory

	// WorkloadAnchorLines, when nonzero, anchors workload footprints to a
	// fixed line count instead of the configured cache size — used by the
	// cache-size sensitivity study (Table VIII), where the workload must
	// stay constant while the cache grows.
	WorkloadAnchorLines uint64

	// WarmupInstr and MeasureInstr are per-core instruction budgets. By
	// default they are lower bounds: windows grow adaptively so low-MPKI
	// workloads still generate enough cache traffic (see adaptiveBudget).
	WarmupInstr  int64
	MeasureInstr int64

	// DisableAdaptiveBudgets uses WarmupInstr/MeasureInstr exactly as
	// given. Intended for full-scale (Scale=1) demonstrations where the
	// adaptive window would be prohibitively long.
	DisableAdaptiveBudgets bool

	// EpochInstr, when positive, samples every registered metric each
	// time the measured window retires another EpochInstr instructions
	// (summed across cores), building the per-epoch time series exported
	// through Result.Metrics. Zero records only the final snapshot.
	// Sampling is passive — it observes component statistics but never
	// feeds back into simulated timing — so it cannot change any result
	// the tables report.
	EpochInstr int64

	// Sampling, when enabled (Period > 0), switches Run to SMARTS-style
	// interval sampling: functional fast-forward through most of the
	// measured phase with short detailed windows, reporting means with
	// Student-t confidence intervals (see sampling.go and DESIGN.md §9).
	// Requires DisableAdaptiveBudgets and excludes EpochInstr.
	Sampling SamplingConfig

	// SampleWorkers bounds how many detailed sampling windows run
	// concurrently in a sampled run (see DESIGN.md §12): a single spine
	// goroutine fast-forwards functionally and forks each interval's
	// detailed re-warm + measured window onto a worker pool. Zero selects
	// GOMAXPROCS; 1 runs the same pipeline with one worker. Results are
	// identical at every setting by construction — observations,
	// SampleSummary, and exported metrics are byte-for-byte the same — so
	// this field only changes wall-clock time and is excluded from memo
	// keys and warm fingerprints. Ignored for exact (non-sampled) runs.
	SampleWorkers int

	// SpineCheckpointDir, when non-empty, is the checkpoint directory
	// (DESIGN.md §7, §14) that memoizes both kinds of run as ckpt.Lattice
	// entries. An exact run's warm state is boundary 0 of a one-entry
	// lattice keyed by WarmFingerprint: a hit restores it and skips
	// warmup, a miss warms up cold and saves it. A sampled run saves its
	// functional spine's boundary 0, the state after functional warmup,
	// and restores it instead of warming up on later runs with the same
	// spine fingerprint. Entries live in the directory's subdirectory
	// named by CheckpointFormatID. Like SampleWorkers it is pure execution
	// strategy — results are byte-identical with the directory unset,
	// empty or populated — so it is excluded from memo keys and
	// fingerprints.
	SpineCheckpointDir string
	// SpineStride N >= 1 saves every Nth interval boundary of a sampled
	// run into the lattice instead of boundary 0 alone, so a re-run with
	// the same interval geometry also skips the functional fast-forward
	// between saved boundaries. Exact runs ignore it.
	SpineStride int

	Seed int64
}

// NVMCapacityFull is Table III's unscaled main-memory capacity: 128 GB of
// PCM, divided by Config.Scale like the L4. The rest of the machine every
// Config runs on is fixed too: cpu.DefaultParams cores at cpu.ClockGHz,
// and dram.HBM and dram.PCM devices.
const NVMCapacityFull int64 = 128 << 30

// Default returns the Table III baseline: 16 cores with a 4 GB
// direct-mapped DRAM cache (scaled by 1/256 for simulation speed).
func Default() Config {
	return Config{
		Name:           "direct-mapped",
		Cores:          16,
		Scale:          256,
		L4CapacityFull: 4 << 30,
		Ways:           1,
		Lookup:         dramcache.LookupPredicted,
		WarmupInstr:    4_000_000,
		MeasureInstr:   4_000_000,
		Seed:           1,
	}
}

// BackendName resolves the effective L4 backend: the Backend field,
// defaulting to "nway".
func (c Config) BackendName() string {
	if c.Backend != "" {
		return c.Backend
	}
	return "nway"
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1:
		return fmt.Errorf("sim: cores %d must be >= 1", c.Cores)
	case c.Scale < 1:
		return fmt.Errorf("sim: scale %d must be >= 1", c.Scale)
	case c.L4CapacityFull <= 0:
		return errors.New("sim: L4 capacity must be positive")
	case c.Backend != "" && !dramcache.HasBackend(c.Backend):
		return fmt.Errorf("sim: unknown L4 backend %q (have %v)", c.Backend, dramcache.BackendNames())
	case c.WarmupInstr < 0 || c.MeasureInstr <= 0:
		return errors.New("sim: instruction budgets invalid")
	case c.SampleWorkers < 0:
		return fmt.Errorf("sim: SampleWorkers %d must be >= 0 (0 = GOMAXPROCS)", c.SampleWorkers)
	case c.SpineStride < 0:
		return fmt.Errorf("sim: SpineStride %d must be >= 0 (0 = boundary 0 only)", c.SpineStride)
	}
	if err := c.validateMachine(); err != nil {
		return err
	}
	return c.Sampling.validate(c)
}

// validateMachine rejects a design point the machine cannot be built at,
// through each component's own check: the L4 organization's geometry
// check from the backend registry, the NVM's page count, and, with
// FullHierarchy, each scaled SRAM level's cache.Config.Validate.
func (c Config) validateMachine() error {
	frames := c.frames()
	if spec, _ := dramcache.GetBackend(c.BackendName()); spec.Check != nil {
		if err := spec.Check(c.backendConfig(), frames); err != nil {
			return fmt.Errorf("sim: L4 %q at scale %d, ways %d: %w", c.BackendName(), c.Scale, c.Ways, err)
		}
	}
	if frames == 0 {
		return fmt.Errorf("sim: scale %d leaves the %d-byte NVM without a %d-byte page",
			c.Scale, NVMCapacityFull, memtypes.PageSize)
	}
	if c.FullHierarchy {
		h := cache.DefaultHierarchy(c.Scale)
		for _, level := range []cache.Config{h.L1, h.L2, h.L3} {
			if err := level.Validate(); err != nil {
				return fmt.Errorf("sim: SRAM hierarchy at scale %d: %w", c.Scale, err)
			}
		}
	}
	return nil
}

// backendConfig is the L4 backend configuration c builds, without the
// policy assemble adds for backends that use one.
func (c Config) backendConfig() dramcache.BackendConfig {
	return dramcache.BackendConfig{
		CapacityBytes:  c.L4Capacity(),
		Ways:           c.Ways,
		Lookup:         c.Lookup,
		LRUReplacement: c.LRUReplacement,
	}
}

// frames is the scaled NVM's physical page count.
func (c Config) frames() uint64 {
	return uint64(NVMCapacityFull / c.Scale / memtypes.PageSize)
}

// L4Capacity returns the scaled DRAM-cache capacity in bytes.
func (c Config) L4Capacity() int64 { return c.L4CapacityFull / c.Scale }

// L4Lines returns the scaled DRAM-cache capacity in lines.
func (c Config) L4Lines() uint64 { return uint64(c.L4Capacity() / memtypes.LineSize) }

// AnchorLines returns the line count workload footprints are sized
// against: the explicit anchor when configured (cache-size sweeps), the
// scaled cache size otherwise. Stream construction — both sim.New's and
// any external Workload.Source such as the trace cache — must use this
// value for identically configured runs to see identical streams.
func (c Config) AnchorLines() uint64 {
	if c.WorkloadAnchorLines != 0 {
		return c.WorkloadAnchorLines
	}
	return c.L4Lines()
}

// Result captures one simulation run.
type Result struct {
	Config   string
	Workload string

	IPC []float64 // per-core, over the measurement window

	L4  dramcache.Stats
	HBM dram.Stats
	PCM dram.Stats
	// L3 is populated only in full-hierarchy mode.
	L3 cache.Stats

	// Cycles is the longest per-core measurement window, i.e. the
	// wall-clock length of the measured phase.
	Cycles int64
	// Instructions is the total measured instruction count.
	Instructions int64
	// Events is the total number of memory events simulated across all
	// cores, warmup included — the numerator for simulator-throughput
	// (events/second) reporting.
	Events int64
	// InstructionsTotal is the total instructions retired across all
	// cores including warmup (Instructions covers only the measured
	// window), for instructions-per-wall-second reporting.
	InstructionsTotal int64

	// Metrics is the run's observability bundle: the final snapshot of
	// every metric the system's components registered, plus the
	// per-epoch time series when Config.EpochInstr was set (or the
	// per-interval series of a sampled run).
	Metrics *metrics.RunMetrics

	// Sampled is non-nil for interval-sampled runs: interval counts,
	// convergence, and the per-metric means with confidence intervals.
	Sampled *SampleSummary
}

// HitRate returns the demand-read hit rate of the run. For sampled runs
// this is the measured-window estimate (the raw L4 stats also include
// the unmeasured timing re-warm segments).
func (r Result) HitRate() float64 {
	if r.Sampled != nil && r.Sampled.HitRate.Valid() {
		return r.Sampled.HitRate.Mean
	}
	return r.L4.HitRate()
}

// Accuracy returns the way-prediction accuracy of the run.
func (r Result) Accuracy() float64 { return r.L4.PredictionAccuracy() }

// MeanIPC returns the arithmetic mean of per-core IPCs.
func (r Result) MeanIPC() float64 {
	if len(r.IPC) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range r.IPC {
		sum += x
	}
	return sum / float64(len(r.IPC))
}

// WeightedSpeedup returns the paper's performance metric: the mean of
// per-core IPC ratios between a target run and its baseline (both must
// have run the same workload and seeds).
func WeightedSpeedup(target, baseline Result) float64 {
	if len(target.IPC) != len(baseline.IPC) || len(target.IPC) == 0 {
		return 0
	}
	sum := 0.0
	n := 0
	for i := range target.IPC {
		if baseline.IPC[i] > 0 {
			sum += target.IPC[i] / baseline.IPC[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// System is one assembled simulation instance. A System is not safe for
// concurrent use, but distinct Systems share no mutable state (workload
// presets are read-only), so independent simulations may run on separate
// goroutines — internal/exp's session scheduler relies on this.
type System struct {
	cfg   Config
	specs []workloads.Spec
	// wl retains the workload the system was assembled from so parallel
	// interval sampling can build fork systems (same config, same
	// workload) for its worker pool. Specs and Source are shared
	// read-only; per-core stream state is never shared between systems.
	wl    workloads.Workload
	cores []*cpu.Core
	l4    dramcache.Interface
	hbm   *dram.Device
	pcm   *dram.Device
	l3    *cache.Cache       // non-nil in full-hierarchy mode
	vmsys *vm.System         // retained for checkpointing
	hiers []*cache.Hierarchy // per-core L1/L2, full-hierarchy mode only

	// reg is the system's metrics registry: every component registers
	// its statistics into it at assembly time, and the final snapshot
	// (plus the optional epoch series) is exported through Result.
	reg *metrics.Registry
	// series is non-nil only during a measured window with EpochInstr
	// set; advanceUntil ticks it.
	series *metrics.Series
	// resIPC holds the per-core measured IPCs once the measurement
	// window closes, so the cpu.mean_ipc gauge's final snapshot matches
	// Result.MeanIPC exactly (mid-run samples use the live window IPC).
	resIPC []float64
	// sample holds the interval-sampling summary once a sampled run
	// completes; the sampling.* gauges read it (NaN/absent before).
	sample *SampleSummary
	// work records the sampled run's speculative-work and wall-clock
	// accounting, and an exact run's checkpoint probe. It is deliberately
	// kept out of Result and the exported metrics: dispatch/discard counts
	// and timings depend on scheduling, and outputs must stay
	// byte-identical at every worker count and checkpoint state.
	work SampleWork

	// snapLen is the length of the last Snapshot blob; the next one sizes
	// its encoder from it.
	snapLen int

	// advanceUntil bookkeeping, reused across the warmup and measure
	// phases to keep the run loop allocation-free.
	finish []finishPoint
	done   []bool
	caps   []int64

	// Incremental window counters for epoch sampling: winInstr caches
	// each core's measured-window instruction count, winInstrSum their
	// total, and maxWinCycles the longest window so far (core time only
	// moves forward, so the max never needs recomputing). Maintained only
	// while series is non-nil; sampleTick reads them instead of rescanning
	// every core per step.
	winInstr     []int64
	winInstrSum  int64
	maxWinCycles int64
}

// memAdapter bridges the core's MemorySystem to the DRAM cache in the
// default (post-L3 stream) mode, for every L4 organization alike.
type memAdapter struct{ l4 dramcache.Interface }

func (m memAdapter) Read(at int64, line memtypes.LineAddr) int64 {
	return m.l4.AccessRead(at, line).Done
}

func (m memAdapter) Write(at int64, line memtypes.LineAddr) {
	m.l4.Writeback(at, line)
}

// hierAdapter routes one core's accesses through its SRAM hierarchy: L3
// misses reach the DRAM cache, fills record DCP+way state in the L3, and
// dirty L3 evictions become probe-free L4 writebacks.
type hierAdapter struct {
	h  *cache.Hierarchy
	l4 dramcache.Interface
}

func (m hierAdapter) Read(at int64, line memtypes.LineAddr) int64 {
	out := m.h.Access(line, false)
	m.sink(at+out.Latency, out.Writebacks)
	if out.Level < 4 {
		return at + out.Latency
	}
	rr := m.l4.AccessRead(at+out.Latency, line)
	wbs := m.h.FillFromBelow(line, false, cache.DCP{Present: true, Way: rr.Way})
	m.sink(rr.Done, wbs)
	return rr.Done
}

func (m hierAdapter) Write(at int64, line memtypes.LineAddr) {
	out := m.h.Access(line, true)
	m.sink(at+out.Latency, out.Writebacks)
	if out.Level < 4 {
		return
	}
	// Write miss: allocate through the DRAM cache, then dirty the line.
	rr := m.l4.AccessRead(at+out.Latency, line)
	wbs := m.h.FillFromBelow(line, true, cache.DCP{Present: true, Way: rr.Way})
	m.sink(rr.Done, wbs)
}

// sink forwards dirty L3 victims to the DRAM cache.
func (m hierAdapter) sink(at int64, wbs []cache.Writeback) {
	for _, wb := range wbs {
		m.l4.Writeback(at, wb.Line)
	}
}

// New assembles a system for one workload. It panics on invalid
// configurations (programming errors); unknown workloads surface earlier
// from the workloads package.
func New(cfg Config, wl workloads.Workload) *System {
	s := new(System)
	s.assemble(cfg, wl)
	return s
}

// assemble builds every component of a fresh system for cfg and wl into
// s, discarding whatever s held: an exact run whose checkpoint restore
// failed midway starts over on the same System this way, and the metric
// views it registers read s itself.
func (s *System) assemble(cfg Config, wl workloads.Workload) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(wl.Specs) != cfg.Cores {
		panic(fmt.Sprintf("sim: workload %s has %d specs for %d cores", wl.Name, len(wl.Specs), cfg.Cores))
	}

	hbm := dram.New(dram.HBM(), cpu.ClockGHz)
	pcm := dram.New(dram.PCM(), cpu.ClockGHz)

	frames := cfg.frames()

	// The L4 organization comes from the backend registry; Validate has
	// already vetted the name and, for a backend with a geometry check,
	// the geometry, so a remaining failure is a programming error at this
	// layer, like the Validate panic above.
	spec, _ := dramcache.GetBackend(cfg.BackendName())
	bcfg := cfg.backendConfig()
	if spec.UsesPolicy {
		factory := cfg.Policy
		if factory == nil {
			factory = func(g core.Geometry, seed int64) core.Policy { return core.NewRand(g, seed) }
		}
		bcfg.Policy = factory(bcfg.Geometry(), cfg.Seed)
	}
	l4, err := spec.New(bcfg, dramcache.Deps{Dev: hbm, NVM: pcm, Frames: frames})
	if err != nil {
		panic(fmt.Sprintf("sim: building L4 backend %q: %v", cfg.BackendName(), err))
	}

	vmsys := vm.NewSystem(frames, cfg.Seed)

	*s = System{cfg: cfg, specs: wl.Specs, wl: wl, l4: l4, hbm: hbm, pcm: pcm, vmsys: vmsys}
	params := cpu.DefaultParams()
	var hiers []*cache.Hierarchy
	if cfg.FullHierarchy {
		hiers, s.l3 = cache.NewSharedHierarchies(cache.DefaultHierarchy(cfg.Scale), cfg.Cores)
		s.hiers = hiers
		// The SRAM path is now modeled structurally; only the L1 lookup
		// remains as a fixed cost on the issue path.
		params.SRAMLat = 0
	}
	anchor := cfg.AnchorLines()
	for i := 0; i < cfg.Cores; i++ {
		var stream workloads.Stream
		if wl.Source != nil {
			stream = wl.Source(i)
		} else {
			stream = workloads.NewStream(wl.Specs[i], anchor, cfg.Cores, workloads.StreamSeed(cfg.Seed, i))
		}
		space := vmsys.NewSpace()
		var mem cpu.MemorySystem = memAdapter{l4: l4}
		if cfg.FullHierarchy {
			mem = hierAdapter{h: hiers[i], l4: l4}
		}
		s.cores = append(s.cores, cpu.New(i, params, stream, space.TranslateLine, mem))
	}
	s.reg = metrics.NewRegistry()
	s.registerMetrics()
}

// warmFactor and measureFactor size the adaptive instruction windows in
// units of "L4 accesses per cache line": warmup must touch the cache
// enough times to reach steady state, and the measurement window must be
// long enough for stable statistics, regardless of the workload's MPKI.
const (
	warmFactor    = 3.0
	measureFactor = 1.5
)

// adaptiveBudget converts an access budget (accesses ≈ factor * cache
// lines) into per-core instructions for this workload's average MPKI.
func (s *System) adaptiveBudget(factor float64, configured int64) int64 {
	if s.cfg.DisableAdaptiveBudgets {
		return configured
	}
	mpki := 0.0
	for _, spec := range s.specs {
		mpki += spec.MPKI
	}
	mpki /= float64(len(s.specs))
	instr := int64(factor * float64(s.cfg.L4Lines()) * 1000 / (mpki * float64(s.cfg.Cores)))
	if instr < configured {
		return configured
	}
	return instr
}

// Run executes warmup then the measurement window and returns the
// result. With Config.Sampling enabled it dispatches to the
// interval-sampling driver instead. With Config.SpineCheckpointDir set,
// an exact run restores its warm state from the checkpoint directory
// instead of warming up, or saves it there for the next run (runExact).
func (s *System) Run(wlName string) Result {
	if s.cfg.Sampling.Enabled() {
		return s.RunSampled(wlName)
	}
	return s.runExact(wlName)
}

// RunWarmup advances every core through the warmup phase and marks the
// warmup/measure boundary (stats reset, window marks). The system state
// at return is exactly what a warm-state checkpoint captures: calling
// RunMeasure afterwards — on this instance or on a fresh one restored
// from the snapshot — produces identical results.
func (s *System) RunWarmup() { s.runWarmup(false) }

// RunWarmupFunctional is RunWarmup with the warmup phase executed in
// functional mode: the cache/policy/VM state at return is byte-identical
// to a detailed warmup of the same events (single-core; multi-core runs
// differ only in cross-core interleaving — see DESIGN.md §9), at a small
// fraction of the cost.
func (s *System) RunWarmupFunctional() { s.runWarmup(true) }

// runWarmup is the one body of both warmups; they differ only in the
// advance call.
func (s *System) runWarmup(functional bool) {
	// Advance every core far enough to warm the cache (low-MPKI workloads
	// need more instructions to generate the same traffic).
	warm := s.adaptiveBudget(warmFactor, s.cfg.WarmupInstr)
	targets := make([]int64, len(s.cores))
	for i := range targets {
		targets[i] = warm
	}
	if functional {
		s.advanceFunctional(targets)
	} else {
		s.advanceUntil(targets)
	}
	s.l4.ResetStats()
	s.hbm.ResetStats()
	s.pcm.ResetStats()
	if s.l3 != nil {
		s.l3.ResetStats()
	}
	for _, c := range s.cores {
		c.MarkWindow()
	}
}

// RunMeasure executes the measurement window on a warmed system (warmed
// by RunWarmup or restored from a checkpoint) and returns the result.
func (s *System) RunMeasure(wlName string) Result {
	if s.cfg.EpochInstr > 0 {
		s.series = metrics.NewSeries(s.reg, s.cfg.EpochInstr)
		s.initWindowTrack()
	}

	// Measure: each core runs a full measurement budget past its own
	// warmup crossing (in a mix, fast cores may have run far ahead while
	// slow cores warmed up).
	measure := s.adaptiveBudget(measureFactor, s.cfg.MeasureInstr)
	targets := make([]int64, len(s.cores))
	for i, c := range s.cores {
		targets[i] = c.Instructions() + measure
	}
	finish := s.advanceUntil(targets)

	res := Result{
		Config:   s.cfg.Name,
		Workload: wlName,
		L4:       *s.l4.Stats(),
		HBM:      s.hbm.Stats(),
		PCM:      s.pcm.Stats(),
	}
	if s.l3 != nil {
		res.L3 = s.l3.Stats()
	}
	for i := range s.cores {
		cycles := finish[i].cycles
		instr := finish[i].instr
		if cycles > 0 {
			res.IPC = append(res.IPC, float64(instr)/float64(cycles))
		} else {
			res.IPC = append(res.IPC, 0)
		}
		if cycles > res.Cycles {
			res.Cycles = cycles
		}
		res.Instructions += instr
	}
	for _, c := range s.cores {
		reads, writes, _, _ := c.Counters()
		res.Events += int64(reads + writes)
		res.InstructionsTotal += c.Instructions()
	}
	// Final snapshot: taken after the measured IPCs are recorded so the
	// summary gauges agree with the Result fields to the last bit.
	s.resIPC = res.IPC
	rm := &metrics.RunMetrics{Final: s.reg.Snapshot()}
	if s.series != nil {
		data := s.series.Data()
		rm.Series = &data
	}
	res.Metrics = rm
	return res
}

type finishPoint struct {
	cycles int64 // window cycles at crossing
	instr  int64 // window instructions at crossing
}

// ensureRunBuffers lazily allocates the advance-loop scratch shared by
// advanceUntil and advanceFunctional, keeping repeated windows (epochs,
// sampling intervals) allocation-free.
func (s *System) ensureRunBuffers() {
	if s.finish == nil {
		n := len(s.cores)
		s.finish = make([]finishPoint, n)
		s.done = make([]bool, n)
		s.caps = make([]int64, n)
	}
}

// advanceUntil steps cores in global time order until every core i has
// retired at least targets[i] total instructions, recording each core's
// measurement window at its crossing point. Cores that finish early keep
// running (up to a bounded overshoot) so shared-resource contention stays
// realistic while slower cores are still being measured.
func (s *System) advanceUntil(targets []int64) []finishPoint {
	s.ensureRunBuffers()
	finish, done, caps := s.finish, s.done, s.caps
	for i := range finish {
		finish[i], done[i], caps[i] = finishPoint{}, false, 0
	}
	remaining := 0
	doneCount := 0
	for i, c := range s.cores {
		// A finished core may keep generating load for up to 4 extra
		// budgets before it freezes (bounding simulation cost when core
		// speeds differ by orders of magnitude, as in mixes).
		caps[i] = targets[i] + 4*(targets[i]-c.Instructions())
		if c.Instructions() >= targets[i] {
			done[i] = true
			doneCount++
			finish[i] = finishPoint{cycles: c.WindowCycles(), instr: c.WindowInstructions()}
		} else {
			remaining++
		}
	}
	// min is the leader, the unfinished core with the smallest local
	// time, and sec the runner-up; -1 asks for a rescan.
	min, sec := -1, -1
	var minTime, secTime int64
	for remaining > 0 {
		// Advance the core with the smallest local time; with 16 cores a
		// linear scan beats a heap. Track the runner-up too: stepping the
		// leader leaves every other unfinished clock unchanged, so the
		// leader stays the minimum — and keeps stepping without a rescan —
		// until it finishes or its clock passes the runner-up's (ties
		// resolve to the lower index, exactly as the scan would).
		if min < 0 {
			minTime, secTime = math.MaxInt64, math.MaxInt64
			for i, c := range s.cores {
				if done[i] {
					continue
				}
				if t := c.Time(); t < minTime {
					sec, secTime = min, minTime
					min, minTime = i, t
				} else if t < secTime {
					sec, secTime = i, t
				}
			}
		}
		// Let already-finished cores keep pace so they keep generating
		// memory pressure while slower cores are measured: each runs
		// until its clock reaches the leader's or it hits its cap.
		if doneCount > 0 {
			for i, c := range s.cores {
				if done[i] && c.Time() < minTime && c.Instructions() < caps[i] {
					c.StepRun(caps[i], minTime, true)
					if s.series != nil {
						s.noteCore(i)
					}
				}
			}
		}
		// The leader runs until it crosses its target or its clock passes
		// the runner-up's (ties yield to the lower index, hence stopOnTie
		// when the leader's index is higher). Once a core has finished,
		// the pacing above must interleave with every leader event, and
		// while an epoch series is live every event is offered to it, so
		// the leader then takes one event per call.
		c := s.cores[min]
		target := targets[min]
		if s.series != nil || doneCount > 0 {
			target = c.Instructions() + 1
		}
		c.StepRun(target, secTime, min > sec)
		if s.series != nil {
			s.noteCore(min)
			s.sampleTick()
		}
		if c.Instructions() >= targets[min] {
			done[min] = true
			doneCount++
			finish[min] = finishPoint{cycles: c.WindowCycles(), instr: c.WindowInstructions()}
			remaining--
			min, sec = -1, -1
		} else if t := c.Time(); t > secTime || (t == secTime && min > sec) {
			min, sec = -1, -1
		} else {
			minTime = t
		}
	}
	return finish
}

// initWindowTrack seeds the incremental window counters with a full scan
// (exact regardless of where the window marks sit).
func (s *System) initWindowTrack() {
	if s.winInstr == nil {
		s.winInstr = make([]int64, len(s.cores))
	}
	s.winInstrSum, s.maxWinCycles = 0, 0
	for i, c := range s.cores {
		s.winInstr[i] = c.WindowInstructions()
		s.winInstrSum += s.winInstr[i]
		if wc := c.WindowCycles(); wc > s.maxWinCycles {
			s.maxWinCycles = wc
		}
	}
}

// noteCore folds core i's stepped window counters into the incremental
// sums. Called after every StepRun while a series is live, so sampleTick
// sees exactly what a full rescan would.
func (s *System) noteCore(i int) {
	c := s.cores[i]
	wi := c.WindowInstructions()
	s.winInstrSum += wi - s.winInstr[i]
	s.winInstr[i] = wi
	if wc := c.WindowCycles(); wc > s.maxWinCycles {
		s.maxWinCycles = wc
	}
}

// sampleTick offers the current window clocks to the epoch series. The
// instruction clock is the total measured-window retirement across cores;
// the cycle clock is the longest per-core window so far. Both are
// maintained incrementally by noteCore — the previous implementation
// rescanned every core on every step, an O(cores) tax on -epoch runs.
func (s *System) sampleTick() {
	s.series.Tick(s.winInstrSum, s.maxWinCycles)
}
