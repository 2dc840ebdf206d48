package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"accord/internal/exp"
	"accord/internal/sim"
	"accord/internal/workloads"
)

// The five workloads. Each is a runner: set-up off the clock, repeatable
// timed runs, a check of every run against a reference output,
// and a traced run with the layer probes installed. README.md gives the
// reasons for each choice.

// sizes is a workload's geometry. The benchmark runs the full sizes; the
// package test runs tiny ones through the same code.
type sizes struct {
	cores   int
	scale   int64
	warm    int64 // per-core warmup instructions
	measure int64 // per-core measured instructions
	period  int64 // sampling period, per core (sampled workloads)
}

type caseDef struct {
	name       string
	full, tiny sizes
	build      func(sz sizes, seed int64, dir string) runner
}

// The full sizes and the checks that they keep each workload's property
// are in README.md (Workloads, Sizing).
var cases = []caseDef{
	{
		name:  "exact-read",
		full:  sizes{cores: 16, scale: 64, warm: 4_000_000, measure: 1_000_000},
		tiny:  sizes{cores: 4, scale: 8192, warm: 150_000, measure: 50_000},
		build: newExactRead,
	},
	{
		name:  "exact-write",
		full:  sizes{cores: 8, scale: 64, warm: 6_000_000, measure: 1_000_000},
		tiny:  sizes{cores: 4, scale: 8192, warm: 150_000, measure: 50_000},
		build: newExactWrite,
	},
	{
		name:  "sampled-spine",
		full:  sizes{cores: 8, scale: 64, warm: 1_250_000, measure: 10_000_000, period: 500_000},
		tiny:  sizes{cores: 2, scale: 4096, warm: 20_000, measure: 200_000, period: 20_000},
		build: func(sz sizes, seed int64, dir string) runner { return newSampled(sz, seed, dir, false) },
	},
	{
		name:  "sampled-resume",
		full:  sizes{cores: 8, scale: 64, warm: 1_250_000, measure: 10_000_000, period: 500_000},
		tiny:  sizes{cores: 2, scale: 4096, warm: 20_000, measure: 200_000, period: 20_000},
		build: func(sz sizes, seed int64, dir string) runner { return newSampled(sz, seed, dir, true) },
	},
	{
		name:  "sweep-warm",
		full:  sizes{cores: 8, scale: 4096, warm: 200_000, measure: 200_000},
		tiny:  sizes{cores: 1, scale: 1 << 16, warm: 2_000, measure: 2_000},
		build: newSweep,
	},
}

func findCase(name string) (caseDef, bool) {
	for _, c := range cases {
		if c.name == name {
			return c, true
		}
	}
	return caseDef{}, false
}

// hostWorkers is the benchmark's parallelism: GOMAXPROCS, SampleWorkers
// and exp.Params.Parallelism all take it.
var hostWorkers = min(2, runtime.NumCPU())

// outcome is what one run of a workload produced.
type outcome struct {
	results []sim.Result
	work    sim.SampleWork // sampled runs
	tc      traceCacheUse  // trace-cache requests made during the run
	tables  string         // sweep: the rendered tables
	points  []pointRecord  // sweep: one per completed design point

	// The instructions and memory events the results count but the run
	// did not simulate: the warmup an exact run restores.
	warmInstr, warmEvents int64
	// err is set when the run could not complete.
	err error
}

type traceCacheUse struct {
	hits, misses uint64
	mb           float64 // resident recordings after the run
}

// runner is one workload instance.
type runner interface {
	// setup prepares the workload off the clock and returns the reference
	// outcome later runs are checked against, or an outcome without
	// results when the first timed run is the reference. Calling it again
	// replaces the previous set-up.
	setup() (outcome, error)
	// run is one timed repetition.
	run() outcome
	// check compares a run's outcome with the reference.
	check(ref, got outcome) error
	// prepareTrace does the untimed work the traced run needs.
	prepareTrace(ref outcome) error
	// traced runs once with the layer probes installed.
	traced() outcome
	// diskMB is the size of the on-disk store the set-up left.
	diskMB() float64
}

// sameResults requires bit-identical simulation results.
func sameResults(want, got []sim.Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Errorf("result %d (%s on %s) differs from the reference", i, got[i].Config, got[i].Workload)
		}
	}
	return nil
}

// exactRunner is one exact detailed simulation fed by the generator. Its
// set-up builds the system, simulates the warmup, which fills the caches,
// and keeps the warm state in memory. A timed run restores that state
// into a new system and simulates the measured window: the path a
// warm-state store gives a repeated design point, without the disk. The
// first timed run is the reference, and every run must also pass sane,
// which checks that the run has the property the workload was chosen for.
type exactRunner struct {
	cfg  sim.Config
	wl   workloads.Workload
	sane func(sim.Result) error
	warm []byte // the last set-up's warm state

	// The traced run's configuration, workload and warm state, built
	// through the layer probes by prepareTrace.
	tracedCfg  sim.Config
	tracedWL   workloads.Workload
	tracedWarm []byte
}

func exactConfig(cfg sim.Config, sz sizes, seed int64) sim.Config {
	cfg.Cores = sz.cores
	cfg.Scale = sz.scale
	cfg.WarmupInstr = sz.warm
	cfg.MeasureInstr = sz.measure
	cfg.DisableAdaptiveBudgets = true
	cfg.Seed = seed
	return cfg
}

// mcfHitLo and mcfHitHi bound the L4 read hit rate mcf reaches once the
// L4 is warm: the repository's Table IV class for mcf
// (internal/workloads/table4_test.go). A measured window below it would
// still be filling the L4.
const mcfHitLo, mcfHitHi = 0.35, 0.55

// newExactRead is ACCORD 2-way on mcf, the paper's design point on its
// most conflict- and dependence-heavy read stream, measured on a warm L4.
func newExactRead(sz sizes, seed int64, _ string) runner {
	return &exactRunner{
		cfg: exactConfig(sim.ACCORD(2), sz, seed),
		wl:  workloads.MustGet("mcf", sz.cores),
		sane: func(r sim.Result) error {
			if r.L4.Predictions == 0 || r.L4.ReadHits == 0 {
				return errors.New("no way-predicted L4 hits")
			}
			if hr := r.HitRate(); hr < mcfHitLo || hr > mcfHitHi {
				return fmt.Errorf("L4 hit rate %.4f outside mcf's warm band [%.2f, %.2f]", hr, mcfHitLo, mcfHitHi)
			}
			return nil
		},
	}
}

// writeStream is a write-heavy streaming spec: a sequential footprint of
// three L4 capacities, so the L4 fills and evicts dirty lines to PCM.
var writeStream = workloads.Spec{
	Name: "write-stream", MPKI: 60, WriteFrac: 0.6, DepFrac: 0.1,
	Components: []workloads.Component{{Weight: 1, SizeRatio: 3, StrideLines: 1}},
}

// minPCMPerWriteback is the least PCM writes per L4 writeback in the
// measured window once the L4 is full of dirty lines and every install
// evicts one; while the L4 is still filling the ratio is far lower.
const minPCMPerWriteback = 0.9

// newExactWrite is TDRAM 4-way behind the full SRAM hierarchy on the
// write stream: stores pass through the caches, dirty L3 victims become
// L4 writebacks and L4 victims PCM writes. TDRAM makes no policy calls.
func newExactWrite(sz sizes, seed int64, _ string) runner {
	cfg := exactConfig(sim.TDRAM(4), sz, seed)
	cfg.FullHierarchy = true
	wl := workloads.Workload{Name: writeStream.Name}
	for i := 0; i < sz.cores; i++ {
		wl.Specs = append(wl.Specs, writeStream)
	}
	return &exactRunner{
		cfg: cfg,
		wl:  wl,
		sane: func(r sim.Result) error {
			if r.L3.Writebacks == 0 || r.L4.Writebacks == 0 {
				return errors.New("the write stream produced no L3 or L4 writebacks")
			}
			if ratio := float64(r.PCM.Writes) / float64(r.L4.Writebacks); ratio < minPCMPerWriteback {
				return fmt.Errorf("%.3f PCM writes per L4 writeback, want >= %.1f (L4 not yet full of dirty lines)", ratio, minPCMPerWriteback)
			}
			return nil
		},
	}
}

// warmState builds a system, simulates its warmup and returns the warm
// state.
func warmState(cfg sim.Config, wl workloads.Workload) ([]byte, error) {
	s := sim.New(cfg, wl)
	s.RunWarmup()
	return s.Snapshot(wl.Name)
}

// measureFrom restores warm into a new system and simulates the measured
// window.
func measureFrom(cfg sim.Config, wl workloads.Workload, warm []byte) outcome {
	s := sim.New(cfg, wl)
	if err := s.Restore(warm, wl.Name); err != nil {
		return outcome{err: err}
	}
	var out outcome
	for _, c := range s.Cores() {
		reads, writes, _, _ := c.Counters()
		out.warmInstr += c.Instructions()
		out.warmEvents += int64(reads + writes)
	}
	out.results = []sim.Result{s.RunMeasure(wl.Name)}
	return out
}

func (r *exactRunner) setup() (outcome, error) {
	var err error
	r.warm, err = warmState(r.cfg, r.wl)
	return outcome{}, err
}

func (r *exactRunner) run() outcome { return measureFrom(r.cfg, r.wl, r.warm) }

func (r *exactRunner) check(ref, got outcome) error {
	if got.err != nil {
		return got.err
	}
	if err := sameResults(ref.results, got.results); err != nil {
		return err
	}
	return r.sane(got.results[0])
}

// prepareTrace warms a system built through the layer probes: the probed
// backend's registry name is part of the warm state's fingerprint, so the
// traced run cannot restore the untraced warm state.
func (r *exactRunner) prepareTrace(outcome) error {
	r.tracedCfg = probedConfig(r.cfg)
	r.tracedWL = probedWorkload(r.wl, r.tracedCfg)
	var err error
	r.tracedWarm, err = warmState(r.tracedCfg, r.tracedWL)
	return err
}

func (r *exactRunner) traced() outcome { return measureFrom(r.tracedCfg, r.tracedWL, r.tracedWarm) }

func (r *exactRunner) diskMB() float64 { return 0 }

// sampledRunner is an interval-sampled ACCORD run on mcf whose streams
// replay a trace cache recorded during set-up. With resume set, set-up
// also populates a spine lattice and every timed run resumes from it.
type sampledRunner struct {
	cfg     sim.Config
	wl      workloads.Workload
	resume  bool
	dir     string
	tc      *workloads.TraceCache
	lattice string
}

func newSampled(sz sizes, seed int64, dir string, resume bool) runner {
	cfg := exactConfig(sim.ACCORD(2), sz, seed)
	sc := sim.DefaultSampling(sz.period)
	sc.TargetCI = 0 // run every planned interval: deterministic work
	cfg.Sampling = sc
	cfg.SampleWorkers = hostWorkers
	return &sampledRunner{cfg: cfg, wl: workloads.MustGet("mcf", sz.cores), resume: resume, dir: dir}
}

// sampledRun runs cfg on the trace-cache-fed workload, through the layer
// probes when probed is set.
func (r *sampledRunner) sampledRun(cfg sim.Config, probed bool) outcome {
	wl := r.wl
	wl.Source = r.tc.Source(wl.Specs, cfg.AnchorLines(), cfg.Seed)
	if probed {
		cfg = probedConfig(cfg)
		wl = probedWorkload(wl, cfg)
	}
	_, _, h0, m0, _ := r.tc.Stats()
	s := sim.New(cfg, wl)
	res := s.Run(wl.Name)
	_, bytes, h1, m1, _ := r.tc.Stats()
	return outcome{
		results: []sim.Result{res},
		work:    s.SampleWork(),
		tc:      traceCacheUse{hits: h1 - h0, misses: m1 - m0, mb: float64(bytes) / (1 << 20)},
	}
}

// runCfg is the configuration of the timed runs.
func (r *sampledRunner) runCfg() sim.Config {
	cfg := r.cfg
	if r.resume {
		cfg.SpineCheckpointDir = r.lattice
		cfg.SpineStride = 1
	}
	return cfg
}

func (r *sampledRunner) setup() (outcome, error) {
	r.tc = workloads.NewTraceCache(0)
	if r.resume {
		r.lattice = filepath.Join(r.dir, "lattice")
		if err := os.RemoveAll(r.lattice); err != nil {
			return outcome{}, err
		}
	}
	out := r.sampledRun(r.runCfg(), false)
	s := out.results[0].Sampled
	if s == nil || s.Intervals != s.Planned || s.Intervals < 2 {
		return out, errors.New("the sampled run did not complete every planned interval")
	}
	if r.resume && out.work.LatticeMisses != s.Intervals {
		return out, fmt.Errorf("populate missed %d of %d boundaries", out.work.LatticeMisses, s.Intervals)
	}
	return out, nil
}

func (r *sampledRunner) run() outcome { return r.sampledRun(r.runCfg(), false) }

func (r *sampledRunner) check(ref, got outcome) error {
	if err := sameResults(ref.results, got.results); err != nil {
		return err
	}
	if r.resume {
		n := got.results[0].Sampled.Intervals
		if got.work.LatticeHits != n || got.work.LatticeMisses != 0 {
			return fmt.Errorf("resume hit %d and missed %d of %d boundaries", got.work.LatticeHits, got.work.LatticeMisses, n)
		}
	}
	return nil
}

// tracedCfg is runCfg with its own lattice: the probe backend's registry
// name is part of the spine fingerprint, so the traced resume needs a
// lattice populated through the probes.
func (r *sampledRunner) tracedCfg() sim.Config {
	cfg := r.runCfg()
	if r.resume {
		cfg.SpineCheckpointDir = filepath.Join(r.dir, "traced-lattice")
	}
	return cfg
}

func (r *sampledRunner) prepareTrace(ref outcome) error {
	if !r.resume {
		return nil
	}
	if err := os.RemoveAll(r.tracedCfg().SpineCheckpointDir); err != nil {
		return err
	}
	return sameResults(ref.results, r.sampledRun(r.tracedCfg(), true).results)
}

func (r *sampledRunner) traced() outcome { return r.sampledRun(r.tracedCfg(), true) }

func (r *sampledRunner) diskMB() float64 {
	if !r.resume {
		return 0
	}
	return dirMB(r.lattice)
}

// sweepRunner runs one paper figure through the experiment scheduler over
// a warm-state store populated by a cold sweep during set-up.
type sweepRunner struct {
	p     exp.Params
	e     exp.Experiment
	store string
}

func newSweep(sz sizes, seed int64, dir string) runner {
	p := exp.QuickParams()
	p.Cores = sz.cores
	p.Scale = sz.scale
	p.WarmupInstr = sz.warm
	p.MeasureInstr = sz.measure
	p.Seed = seed
	p.Parallelism = hostWorkers
	p.TraceCache = true
	p.CheckpointDir = filepath.Join(dir, "store")
	e, ok := exp.Find("fig10")
	if !ok {
		panic("benchmark: experiment fig10 is not registered")
	}
	return &sweepRunner{p: p, e: e, store: p.CheckpointDir}
}

// pointRecord is one design point's completion, from the session's
// progress hook.
type pointRecord struct {
	warm    bool
	latency time.Duration
}

// pointLog turns the session's progress lines into per-point latencies:
// each pool worker runs its points one after another, so a point's
// latency is the time since its worker's previous completion.
type pointLog struct {
	mu     sync.Mutex
	start  time.Time
	last   map[string]time.Time
	points []pointRecord
}

func newPointLog() *pointLog { return &pointLog{start: time.Now(), last: map[string]time.Time{}} }

func (l *pointLog) Write(b []byte) (int, error) {
	t := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range strings.Split(string(b), "\n") {
		// "  [wNN] warm <config> <workload> ..." or "  [wNN] ran  ...".
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		prev, ok := l.last[f[0]]
		if !ok {
			prev = l.start
		}
		l.last[f[0]] = t
		l.points = append(l.points, pointRecord{warm: f[1] == "warm", latency: t.Sub(prev)})
	}
	return len(b), nil
}

func (r *sweepRunner) sweep() outcome {
	log := newPointLog()
	p := r.p
	p.Progress = log
	s := exp.NewSession(p)
	var b strings.Builder
	for _, t := range s.RunExperiment(r.e) {
		b.WriteString(t.Render())
	}
	out := outcome{tables: b.String(), points: log.points}
	for _, pt := range s.Plan(r.e) {
		out.results = append(out.results, s.Run(pt.Config, pt.Workload))
	}
	_, bytes, hits, misses, _ := s.TraceCacheStats()
	out.tc = traceCacheUse{hits: hits, misses: misses, mb: float64(bytes) / (1 << 20)}
	return out
}

func (r *sweepRunner) setup() (outcome, error) {
	if err := os.RemoveAll(r.store); err != nil {
		return outcome{}, err
	}
	ref := r.sweep()
	if len(ref.points) != len(ref.results) || len(ref.points) == 0 {
		return ref, fmt.Errorf("cold sweep reported %d points for %d design points", len(ref.points), len(ref.results))
	}
	return ref, nil
}

func (r *sweepRunner) run() outcome { return r.sweep() }

func (r *sweepRunner) check(ref, got outcome) error {
	if got.tables != ref.tables {
		return errors.New("tables differ from the cold sweep")
	}
	warm := 0
	for _, pt := range got.points {
		if pt.warm {
			warm++
		}
	}
	if warm != len(ref.points) || len(got.points) != len(ref.points) {
		return fmt.Errorf("%d of %d points restored warm, want all %d", warm, len(got.points), len(ref.points))
	}
	return sameResults(ref.results, got.results)
}

func (r *sweepRunner) prepareTrace(outcome) error { return nil }

// traced is a plain warm sweep: the experiment catalog builds its own
// configurations and workloads, so the layer probes cannot be installed
// from outside and the sweep's layer split comes from the scheduler's
// progress hook alone.
func (r *sweepRunner) traced() outcome { return r.sweep() }

func (r *sweepRunner) diskMB() float64 { return dirMB(r.store) }
