// Package exp defines one reproducible experiment per table and figure of
// the paper's evaluation. Each experiment produces plain-text tables whose
// rows/series mirror what the paper reports; cmd/accordbench and the
// repository benchmarks drive them.
package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"accord/internal/sim"
	"accord/internal/stats"
	"accord/internal/workloads"
)

// Params controls experiment scale and duration.
type Params struct {
	Scale        int64
	Cores        int
	WarmupInstr  int64
	MeasureInstr int64
	Seed         int64

	// Parallelism bounds how many simulations the session runs
	// concurrently when experiments are executed through RunExperiment
	// or Prefetch. Zero selects GOMAXPROCS; 1 forces sequential runs.
	// Table output is byte-identical at every setting: each simulation
	// is deterministic given (config, workload, seed), and tables are
	// always assembled on the calling goroutine from memoized results.
	Parallelism int

	// Progress, when non-nil, receives one line per completed simulation.
	// Writes are serialized by the session, so any io.Writer is safe.
	Progress io.Writer

	// EpochInstr, when positive, enables per-epoch metrics sampling in
	// every simulation the session runs (see sim.Config.EpochInstr); the
	// series travel with the results into ExportMetrics. Sampling is
	// passive, so tables are unaffected at any setting.
	EpochInstr int64

	// CheckpointDir, when non-empty, is the checkpoint directory every
	// simulation in the session shares (sim.Config.SpineCheckpointDir):
	// an exact design point restores its warmup/measure boundary from it
	// instead of re-simulating warmup, and a sampled one its spine's
	// boundary 0, the state after functional warmup; misses run cold and
	// populate it. Entries are content-addressed by fingerprint, so repeat
	// points — across sessions, or sweeps varying only measurement knobs —
	// reuse each other's work. Restored runs are byte-identical to cold
	// runs, so tables are unaffected and the memo key excludes it; only
	// wall-clock time changes.
	CheckpointDir string

	// TraceCache enables the shared memoizing workload trace cache (see
	// workloads.TraceCache): the first design point to consume a per-core
	// event stream records it, and every other design point on the same
	// workload replays the recording instead of re-generating it. One
	// cache serves the whole session, shared across the Parallelism
	// worker pool. Replayed events are byte-identical to generated ones,
	// and cores read both through the same event loops (sampled runs'
	// functional spine interleaves cores by a fixed instruction quantum
	// for every stream kind), so tables, sampled ones included, are
	// unaffected at either setting; only wall-clock time changes.
	TraceCache bool

	// TraceCacheBytes caps the trace cache's recorded bytes; past it,
	// least-recently-used recordings are dropped. Zero selects
	// workloads.DefaultTraceCacheBytes.
	TraceCacheBytes int64

	// Sampling, when enabled (Period > 0), runs every simulation in the
	// session as a SMARTS-style interval-sampled run (see sim.Config.
	// Sampling): warmup and most of the measured phase execute in
	// functional fast-forward mode, short detailed windows produce
	// per-interval observations, and results report means with Student-t
	// confidence intervals. Sampling changes reported numbers (they are
	// estimates of the exact run's values, with quoted CIs), so sampled
	// sessions memoize separately from exact ones. It forces
	// DisableAdaptiveBudgets and supersedes EpochInstr (sampled runs get
	// a per-interval series instead of an epoch series).
	Sampling sim.SamplingConfig

	// SampleWorkers sets sim.Config.SampleWorkers for sampled runs: how
	// many goroutines execute detailed interval windows in parallel
	// (0 = GOMAXPROCS; 1 runs the same pipeline with one worker). It is
	// pure execution strategy — results are identical at any setting by
	// construction — so it is deliberately excluded from the memo key: a
	// session warmed at one worker count serves another without
	// recomputation.
	SampleWorkers int
}

// parallelism returns the effective worker count.
func (p Params) parallelism() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultParams returns the full-quality setting used to produce
// EXPERIMENTS.md: 1/256-scale capacities with adaptive instruction budgets.
func DefaultParams() Params {
	return Params{Scale: 256, Cores: 16, WarmupInstr: 4_000_000, MeasureInstr: 4_000_000, Seed: 1, TraceCache: true}
}

// QuickParams returns a reduced setting for benchmarks and smoke tests:
// 1/1024-scale capacities and short windows.
func QuickParams() Params {
	return Params{Scale: 1024, Cores: 8, WarmupInstr: 400_000, MeasureInstr: 400_000, Seed: 1, TraceCache: true}
}

// appendKey appends the memo key of an applied configuration on a
// workload to b: the name, the workload, and every other result-affecting
// field — the warm-state fields sim.Config.AppendStateFields lists plus
// the measured-phase ones. NUL bytes separate the name and workload, so
// keys sort by (name, workload, the rest). sim.Config.Policy is a
// function and cannot be compared; the configuration catalog keys policy
// identity through Name.
func appendKey(b []byte, cfg sim.Config, workload string) []byte {
	b = append(append(append(append(b, cfg.Name...), 0), workload...), 0)
	b = cfg.AppendStateFields(b)
	return fmt.Appendf(b, "|measure=%d|epoch=%d|sampling=%+v", cfg.MeasureInstr, cfg.EpochInstr, cfg.Sampling)
}

// entry is one memoized (or in-flight) simulation. The goroutine that
// inserts the entry runs the simulation and closes done; every other
// caller of the same design point blocks on done instead of duplicating
// the run.
type entry struct {
	done chan struct{}
	res  sim.Result
}

// Session memoizes simulation results so experiments sharing design points
// (every figure reuses the direct-mapped baseline) pay for each run once.
// It is safe for concurrent use: simultaneous Run calls on the same design
// point coalesce onto a single simulation.
type Session struct {
	p Params

	mu   sync.Mutex
	memo map[string]*entry // by appendKey

	progressMu sync.Mutex

	// traces is the shared workload trace cache, nil when disabled. It is
	// safe for concurrent use; every worker records into and replays from
	// the same recordings.
	traces *workloads.TraceCache

	// planning, when non-nil, turns Run into a recorder: design points
	// are collected and zero results returned without simulating.
	planning *planRecorder

	// workMu guards work, the sampled-run execution split accumulated
	// across every simulation the session ran (not memo hits).
	workMu sync.Mutex
	work   sim.SampleWork
}

// NewSession creates a session for the given parameters.
func NewSession(p Params) *Session {
	if p.Cores <= 0 {
		p.Cores = 16
	}
	if p.Scale <= 0 {
		p.Scale = 256
	}
	s := &Session{p: p, memo: make(map[string]*entry)}
	if p.TraceCache {
		s.traces = workloads.NewTraceCache(p.TraceCacheBytes)
	}
	return s
}

// TraceCacheStats reports the session trace cache's counters; all zeros
// when the cache is disabled.
func (s *Session) TraceCacheStats() (traces int, bytes int64, hits, misses, evicted uint64) {
	if s.traces == nil {
		return 0, 0, 0, 0, 0
	}
	return s.traces.Stats()
}

// Params returns the session parameters.
func (s *Session) Params() Params { return s.p }

// apply rewrites a catalog config with the session's scale and budgets.
func (s *Session) apply(cfg sim.Config) sim.Config {
	cfg.Scale = s.p.Scale
	cfg.Cores = s.p.Cores
	cfg.WarmupInstr = s.p.WarmupInstr
	cfg.MeasureInstr = s.p.MeasureInstr
	cfg.Seed = s.p.Seed
	cfg.EpochInstr = s.p.EpochInstr
	cfg.SpineCheckpointDir = s.p.CheckpointDir
	if s.p.Sampling.Enabled() {
		// Interval sampling owns the measured-phase layout and the metric
		// series; adaptive budgets and epoch sampling would fight it (see
		// SamplingConfig.validate for why these are rejected).
		cfg.Sampling = s.p.Sampling
		cfg.SampleWorkers = s.p.SampleWorkers
		cfg.DisableAdaptiveBudgets = true
		cfg.EpochInstr = 0
	}
	return cfg
}

// Run simulates cfg on the named workload, memoized. Concurrent callers
// of the same design point share one simulation.
func (s *Session) Run(cfg sim.Config, workload string) sim.Result {
	return s.run(0, cfg, workload)
}

// run is Run with a worker ID for progress reporting (0 = the caller's
// own goroutine, 1..N = pool workers).
func (s *Session) run(worker int, cfg sim.Config, workload string) sim.Result {
	cfg = s.apply(cfg)
	// Indexing a map with string(k) does not copy k, so a memo hit
	// allocates only what AppendStateFields boxes.
	var buf [1024]byte
	k := appendKey(buf[:0], cfg, workload)
	if s.planning != nil {
		s.planning.record(k, cfg, workload)
		return sim.Result{Config: cfg.Name, Workload: workload}
	}
	s.mu.Lock()
	if e, ok := s.memo[string(k)]; ok {
		s.mu.Unlock()
		<-e.done
		return e.res
	}
	e := &entry{done: make(chan struct{})}
	s.memo[string(k)] = e
	s.mu.Unlock()
	defer close(e.done)
	start := time.Now()
	wl := workloads.MustGet(workload, cfg.Cores)
	if s.traces != nil {
		wl.Source = s.traces.Source(wl.Specs, cfg.AnchorLines(), cfg.Seed)
	}
	var work sim.SampleWork
	// The pprof labels make -cpuprofile output attributable per design
	// point: `go tool pprof -tags` breaks time down by config and
	// workload, and label filters (-tagfocus) isolate one of either.
	pprof.Do(context.Background(), pprof.Labels("config", cfg.Name, "workload", workload), func(context.Context) {
		sys := sim.New(cfg, wl)
		e.res = sys.Run(workload)
		work = sys.SampleWork()
	})
	s.addWork(work)
	restored := work.LatticeHits > 0 && work.LatticeMisses == 0
	s.progress(worker, cfg.Name, workload, e.res, restored, time.Since(start))
	return e.res
}

// addWork folds one sampled run's execution split into the session totals.
func (s *Session) addWork(w sim.SampleWork) {
	if w.Workers == 0 {
		return // exact run: no sampled-work split to report
	}
	s.workMu.Lock()
	defer s.workMu.Unlock()
	s.work.Add(w)
}

// SampleWorkTotals reports the sampled-run execution split summed over
// every simulation the session actually ran (Workers is the maximum
// resolved worker count; zero value when no sampled run completed).
func (s *Session) SampleWorkTotals() sim.SampleWork {
	s.workMu.Lock()
	defer s.workMu.Unlock()
	return s.work
}

// progress emits one serialized line per completed simulation. The verb
// slot distinguishes runs that simulated anything ("ran ") from ones that
// restored every checkpoint they probed ("warm"): an exact point's warm
// state. A sampled point restores only its boundary 0 and computes the
// rest, so it reports "ran " unless it has one interval.
func (s *Session) progress(worker int, cfg, workload string, r sim.Result, restored bool, took time.Duration) {
	if s.p.Progress == nil {
		return
	}
	verb := "ran "
	if restored {
		verb = "warm"
	}
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	fmt.Fprintf(s.p.Progress, "  [w%02d] %s %-22s %-12s hit=%.3f ipc=%.4f (%.2fs)\n",
		worker, verb, cfg, workload, r.HitRate(), r.MeanIPC(), took.Seconds())
}

// TotalEvents returns the total memory events and retired instructions
// simulated across every completed design point in the session — the
// numerators for the events/second throughput summary. In-flight runs
// are skipped rather than waited for.
func (s *Session) TotalEvents() (events, instructions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.memo {
		select {
		case <-e.done:
			events += e.res.Events
			instructions += e.res.InstructionsTotal
		default:
		}
	}
	return events, instructions
}

// memoSize returns the number of memoized design points (for tests).
func (s *Session) memoSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo)
}

// Baseline returns the direct-mapped baseline result for a workload.
func (s *Session) Baseline(workload string) sim.Result {
	return s.Run(sim.DirectMapped(), workload)
}

// Speedup returns the weighted speedup of cfg over the baseline.
func (s *Session) Speedup(cfg sim.Config, workload string) float64 {
	return sim.WeightedSpeedup(s.Run(cfg, workload), s.Baseline(workload))
}

// SuiteSpeedups evaluates cfg across a suite, returning per-workload
// speedups plus the geometric mean (the paper's summary statistic).
func (s *Session) SuiteSpeedups(cfg sim.Config, suite []string) (per []float64, geomean float64) {
	per = make([]float64, len(suite))
	for i, wl := range suite {
		per[i] = s.Speedup(cfg, wl)
	}
	geomean, _ = stats.Geomean(per)
	return per, geomean
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID       string // e.g. "fig10", "tab5"
	PaperRef string // e.g. "Figure 10"
	Title    string
	Run      func(*Session) []*stats.Table
}

// registry is populated by init functions in experiments.go and kernel.go.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment, ordered as they appear in the paper.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

// order gives experiments a paper-reading order.
func order(id string) int {
	idx := map[string]int{
		"fig1": 1, "tab1": 2, "tab2": 3, "fig6": 4, "tab5": 5, "fig7": 6,
		"tab6": 7, "fig10": 8, "tab7": 9, "fig13": 10, "fig12": 11,
		"tab8": 12, "tab9": 13, "fig14": 14, "tab10": 15, "fig15": 16, "lru": 17,
		"ablgws": 18, "ablsws": 19, "ablhier": 20, "backends": 21,
	}
	if n, ok := idx[id]; ok {
		return n
	}
	return 99
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment identifiers in paper order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// pct formats a fraction as a percentage, and an undefined (NaN) one as
// n/a.
func pct(x float64) string {
	if math.IsNaN(x) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// spd formats a speedup.
func spd(x float64) string { return fmt.Sprintf("%.3f", x) }
