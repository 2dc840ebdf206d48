package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"accord/internal/workloads"
)

// parallelCases spans every L4 organization across the equivalence
// matrix the parallel sampler must honor: single- and multi-core,
// early-stop on and off. Small scale keeps the full matrix fast.
func parallelCases(cores int, earlyStop bool) []Config {
	shrink := func(cfg Config) Config {
		cfg.Scale = 8192
		cfg.Cores = cores
		cfg.DisableAdaptiveBudgets = true
		cfg.WarmupInstr = 50_000
		cfg.MeasureInstr = 300_000
		cfg.Seed = 1
		cfg.Sampling = SamplingConfig{
			Period:       50_000,
			DetailLen:    12_000,
			WarmLen:      5_000,
			MinIntervals: 2,
		}
		if earlyStop {
			// ±50% converges after two or three intervals, leaving planned
			// intervals undispatched and speculative results to discard.
			cfg.Sampling.TargetCI = 0.5
		}
		return cfg
	}
	return []Config{
		shrink(DirectMapped()),
		shrink(ACCORD(2)),
		shrink(CACache()),
		shrink(Banshee()),
		shrink(Gemini()),
		shrink(TDRAM(2)),
	}
}

// traceWorkload wraps wlName in a fresh trace cache so forks replay the
// exact event stream the spine consumes (the configuration exp runs).
func traceWorkload(wlName string, cfg Config) workloads.Workload {
	gen := workloads.MustGet(wlName, cfg.Cores)
	tc := workloads.NewTraceCache(1 << 30)
	wl := gen
	wl.Source = tc.Source(gen.Specs, cfg.AnchorLines(), cfg.Seed)
	return wl
}

// runSampledWorkers runs one sampled simulation at the given worker
// count and returns the Result, its JSON encoding, and the Snapshot of
// the system's final state.
func runSampledWorkers(t *testing.T, cfg Config, wl workloads.Workload, wlName string, workers int) (Result, []byte, []byte, SampleWork) {
	t.Helper()
	c := cfg
	c.SampleWorkers = workers
	s := New(c, wl)
	res := s.Run(wlName)
	js, err := json.MarshalIndent(res.Metrics, "", " ")
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	state, err := s.Snapshot(wlName)
	if err != nil {
		t.Fatalf("final Snapshot: %v", err)
	}
	return res, js, state, s.SampleWork()
}

// TestSampledParallelMatchesSequential is the tentpole equivalence gate:
// for every L4 organization, single- and multi-core, with and without
// early stopping, a sampled run on several workers must reproduce the
// one-worker run exactly — same Result (summary, per-interval series,
// stats, registry snapshot), same exported metrics JSON, and
// byte-identical final state. Run it under -race to also
// prove the fork protocol shares no state it shouldn't. ACCORD_BACKEND
// narrows the matrix to one backend.
func TestSampledParallelMatchesSequential(t *testing.T) {
	const wlName = "libquantum"
	for _, cores := range []int{1, 2} {
		for _, earlyStop := range []bool{false, true} {
			for _, cfg := range parallelCases(cores, earlyStop) {
				cfg := cfg
				if backendFilterSkip(t, cfg.BackendName()) {
					continue
				}
				name := fmt.Sprintf("%s-%dc-stop=%t", cfg.Name, cores, earlyStop)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					wl := traceWorkload(wlName, cfg)
					seqRes, seqJS, seqState, seqWork := runSampledWorkers(t, cfg, wl, wlName, 1)
					if seqWork.Workers != 1 {
						t.Fatalf("sequential run resolved %d workers, want 1", seqWork.Workers)
					}
					for _, workers := range []int{2, 3} {
						parRes, parJS, parState, parWork := runSampledWorkers(t, cfg, wl, wlName, workers)
						if !reflect.DeepEqual(seqRes, parRes) {
							t.Errorf("workers=%d: Result diverged from sequential\nseq sampled: %+v\npar sampled: %+v",
								workers, seqRes.Sampled, parRes.Sampled)
						}
						if !bytes.Equal(seqJS, parJS) {
							t.Errorf("workers=%d: exported metrics JSON diverged from sequential", workers)
						}
						if !bytes.Equal(seqState, parState) {
							t.Errorf("workers=%d: final state diverged from sequential (%d vs %d bytes)",
								workers, len(seqState), len(parState))
						}
						if parWork.Committed != seqRes.Sampled.Intervals {
							t.Errorf("workers=%d: committed %d intervals, summary says %d",
								workers, parWork.Committed, seqRes.Sampled.Intervals)
						}
						if parWork.Discarded != parWork.Dispatched-parWork.Committed {
							t.Errorf("workers=%d: speculation accounting broken: %+v", workers, parWork)
						}
					}
				})
			}
		}
	}
}

// TestSampledParallelGeneratorWorkload covers the non-trace path: forks
// rebuild generator streams from the workload spec and restore their
// cursors from the functional snapshot. One config suffices — the
// stream-restore machinery is shared across organizations.
func TestSampledParallelGeneratorWorkload(t *testing.T) {
	cfg := parallelCases(2, false)[1] // accord-2way
	wl := workloads.MustGet("milc", cfg.Cores)
	seqRes, seqJS, seqState, _ := runSampledWorkers(t, cfg, wl, "milc", 1)
	parRes, parJS, parState, _ := runSampledWorkers(t, cfg, wl, "milc", 3)
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Errorf("generator workload: parallel Result diverged from sequential")
	}
	if !bytes.Equal(seqJS, parJS) {
		t.Errorf("generator workload: exported metrics JSON diverged")
	}
	if !bytes.Equal(seqState, parState) {
		t.Errorf("generator workload: final state diverged")
	}
}

// TestSampledStreamKindInvariant pins that what feeds the cores cannot
// change a sampled run. A trace-cache cursor serves the rest of a
// recorded chunk per window and the generator one event, but both feed
// the same two event loops, and the spine interleaves cores by a fixed
// instruction quantum. So a multi-core run must give the same Result,
// exported metrics JSON and final state either way, on the
// flat hierarchy and behind the full SRAM hierarchy. On the flat
// hierarchy, a lattice a generator-fed run populates must also resume a
// trace-cache-fed run to that same result.
func TestSampledStreamKindInvariant(t *testing.T) {
	const wlName = "libquantum"
	for _, base := range parallelCases(2, false) {
		if base.Name != ACCORD(2).Name && base.BackendName() != "tdram" {
			continue
		}
		if backendFilterSkip(t, base.BackendName()) {
			continue
		}
		for _, hier := range []bool{false, true} {
			cfg := base
			cfg.FullHierarchy = hier
			t.Run(fmt.Sprintf("%s-hier=%t", cfg.Name, hier), func(t *testing.T) {
				t.Parallel()
				gen := workloads.MustGet(wlName, cfg.Cores)
				wantRes, wantJS, wantState, _ := runSampledWorkers(t, cfg, traceWorkload(wlName, cfg), wlName, 2)
				same := func(what string, res Result, js, state []byte) {
					t.Helper()
					if !reflect.DeepEqual(wantRes, res) {
						t.Errorf("%s: Result diverged from the trace-cache-fed run\ntrace sampled: %+v\n%s sampled: %+v",
							what, wantRes.Sampled, what, res.Sampled)
					}
					if !bytes.Equal(wantJS, js) {
						t.Errorf("%s: exported metrics JSON diverged from the trace-cache-fed run", what)
					}
					if !bytes.Equal(wantState, state) {
						t.Errorf("%s: final state diverged from the trace-cache-fed run", what)
					}
				}
				res, js, state, _ := runSampledWorkers(t, cfg, gen, wlName, 2)
				same("generator-fed", res, js, state)
				if hier {
					return
				}
				dir := t.TempDir()
				runSampledWorkers(t, latticeCfg(cfg, dir), gen, wlName, 2)
				res, js, state, work := runSampledWorkers(t, latticeCfg(cfg, dir), traceWorkload(wlName, cfg), wlName, 2)
				same("resumed from a generator-fed lattice", res, js, state)
				if work.LatticeHits == 0 || work.LatticeMisses != 0 {
					t.Errorf("resumed run should hit every boundary: %d hits, %d misses", work.LatticeHits, work.LatticeMisses)
				}
			})
		}
	}
}

// TestSampledPooledForkReset proves pooled fork and holder Systems are
// fully reset between intervals: a run whose workers rebuild a fresh
// fork for every job, and whose spine a fresh holder for every boundary,
// must match a run that reuses them across intervals. Any state the
// copy plus the interval reset (or the restore) misses would surface
// as a divergence here. The spine, the workers and the committer all
// share the holder pool, so run it under -race -count=10. Mutates the
// global test hook, so no t.Parallel.
func TestSampledPooledForkReset(t *testing.T) {
	const wlName = "libquantum"
	for _, cfg := range []Config{parallelCases(2, false)[1], parallelCases(2, true)[5]} {
		wl := traceWorkload(wlName, cfg)
		pooledRes, pooledJS, pooledState, work := runSampledWorkers(t, cfg, wl, wlName, 3)
		if work.MemoryForks != work.Dispatched {
			t.Errorf("%s: %d of %d boundaries forked in memory, want all", cfg.Name, work.MemoryForks, work.Dispatched)
		}

		forceFreshForkSystems = true
		freshRes, freshJS, freshState, _ := runSampledWorkers(t, cfg, wl, wlName, 3)
		forceFreshForkSystems = false

		if !reflect.DeepEqual(pooledRes, freshRes) {
			t.Errorf("%s: pooled-fork Result diverged from fresh-fork", cfg.Name)
		}
		if !bytes.Equal(pooledJS, freshJS) {
			t.Errorf("%s: pooled-fork metrics JSON diverged from fresh-fork", cfg.Name)
		}
		if !bytes.Equal(pooledState, freshState) {
			t.Errorf("%s: pooled-fork final state diverged from fresh-fork", cfg.Name)
		}
	}
}

// TestSampledParallelNoGoroutineLeak checks that early-stopped parallel
// runs wind down completely: spine, workers, and closer all exit even
// when most planned intervals are cancelled.
func TestSampledParallelNoGoroutineLeak(t *testing.T) {
	cfg := parallelCases(1, true)[0]
	cfg.MeasureInstr = 1_500_000 // 30 planned intervals, ~2 committed
	wl := traceWorkload("libquantum", cfg)

	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		runSampledWorkers(t, cfg, wl, "libquantum", 4)
	}
	var after int
	for try := 0; try < 50; try++ {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after early-stopped parallel runs", before, after)
}

// TestSampleWorkersResolution pins the worker-count policy: 0 means
// GOMAXPROCS, and the count is capped by planned intervals.
func TestSampleWorkersResolution(t *testing.T) {
	cfg := parallelCases(1, false)[0] // 6 planned intervals
	wl := traceWorkload("libquantum", cfg)

	_, _, _, work := runSampledWorkers(t, cfg, wl, "libquantum", 0)
	want := runtime.GOMAXPROCS(0)
	if want > 6 {
		want = 6
	}
	if work.Workers != want {
		t.Errorf("SampleWorkers=0 resolved to %d workers, want %d (GOMAXPROCS capped at planned)", work.Workers, want)
	}

	_, _, _, work = runSampledWorkers(t, cfg, wl, "libquantum", 64)
	if work.Workers != 6 {
		t.Errorf("SampleWorkers=64 resolved to %d workers, want planned cap 6", work.Workers)
	}

}

// TestSampledTraceWorkloadForks pins that trace replay forks like any
// other workload: a two-core TraceWorkload gives the same Result,
// metrics JSON and final state at one and three workers, with
// every boundary handed over as an in-memory copy.
func TestSampledTraceWorkloadForks(t *testing.T) {
	const wlName = "trace"
	cfg := parallelCases(2, false)[1] // accord-2way
	st := workloads.NewStream(workloads.MustGet("libquantum", 1).Specs[0], cfg.AnchorLines(), cfg.Cores, 1)
	events := make([]workloads.Event, 20_000)
	for i := range events {
		st.Next(&events[i])
	}
	wl, err := workloads.TraceWorkload(wlName, events, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	oneRes, oneJS, oneState, oneWork := runSampledWorkers(t, cfg, wl, wlName, 1)
	res, js, state, work := runSampledWorkers(t, cfg, wl, wlName, 3)
	for _, w := range []SampleWork{oneWork, work} {
		if w.Dispatched == 0 || w.MemoryForks != w.Dispatched {
			t.Errorf("workers=%d: memory_forks %d, dispatched %d; want every boundary copied", w.Workers, w.MemoryForks, w.Dispatched)
		}
	}
	if !reflect.DeepEqual(oneRes, res) {
		t.Errorf("trace workload: Result differs between 1 and 3 workers")
	}
	if !bytes.Equal(oneJS, js) {
		t.Errorf("trace workload: exported metrics JSON differs between 1 and 3 workers")
	}
	if !bytes.Equal(oneState, state) {
		t.Errorf("trace workload: final state differs between 1 and 3 workers")
	}
}
