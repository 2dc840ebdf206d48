package exp

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"accord/internal/dramcache"
	"accord/internal/sim"
)

// runRendered executes e and returns the concatenated rendering of its
// tables, via RunExperiment so the scheduler path is exercised.
func runRendered(e Experiment, s *Session) string {
	var b strings.Builder
	for _, tb := range s.RunExperiment(e) {
		b.WriteString(tb.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelDeterminism is the scheduler's core contract: a session at
// Parallelism 1 and one at Parallelism 8 must render byte-identical
// tables, because the pool only changes who runs each deterministic
// simulation, never what the tables are assembled from.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism test runs full experiments; skipped with -short")
	}
	for _, id := range []string{"tab6", "fig10"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		pSeq := tinyParams()
		pSeq.Parallelism = 1
		pPar := tinyParams()
		pPar.Parallelism = 8
		seq := runRendered(e, NewSession(pSeq))
		par := runRendered(e, NewSession(pPar))
		if seq != par {
			t.Errorf("%s: parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", id, seq, par)
		}
		if len(seq) == 0 {
			t.Errorf("%s rendered empty output", id)
		}
	}
}

// TestConcurrentSessionRun hammers one session from many goroutines over
// overlapping design points (all sharing the direct-mapped baseline).
// Under -race this exercises the memo locking; the progress line count
// proves the singleflight deduplication ran each design point once.
func TestConcurrentSessionRun(t *testing.T) {
	var progress bytes.Buffer
	p := tinyParams()
	p.Progress = &progress
	s := NewSession(p)

	cfgs := []sim.Config{
		sim.DirectMapped(),
		sim.Unbiased(2, dramcache.LookupPredicted),
		sim.PWS(0.85),
	}
	const goroutines = 12
	results := make([]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine touches every point, including the shared
			// baseline via Speedup.
			total := 0.0
			for _, cfg := range cfgs {
				total += s.Speedup(cfg, "nekbone")
			}
			results[g] = total
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Errorf("goroutine %d saw different results: %v vs %v", g, results[g], results[0])
		}
	}
	if got := s.memoSize(); got != len(cfgs) {
		t.Errorf("memo holds %d entries, want %d (baseline shared)", got, len(cfgs))
	}
	if ran := strings.Count(progress.String(), " ran "); ran != len(cfgs) {
		t.Errorf("%d simulations ran, want %d (singleflight should coalesce):\n%s",
			ran, len(cfgs), progress.String())
	}
}

// TestMemoKeyDistinguishesConfigs guards against the old Sprintf key,
// which dropped Ways/Lookup/FullHierarchy and collided any two configs
// sharing a Name.
func TestMemoKeyDistinguishesConfigs(t *testing.T) {
	s := NewSession(tinyParams())

	base := sim.DirectMapped()
	twoWay := sim.Unbiased(2, dramcache.LookupPredicted)
	twoWay.Name = base.Name // force the historical collision
	r1 := s.Run(base, "nekbone")
	r2 := s.Run(twoWay, "nekbone")
	if s.memoSize() != 2 {
		t.Fatalf("memo holds %d entries, want 2: same-Name configs with different Ways must not collide", s.memoSize())
	}
	if r1.L4.Reads == r2.L4.Reads && r1.MeanIPC() == r2.MeanIPC() {
		t.Error("1-way and 2-way runs returned identical results; key collision suspected")
	}

	hier := base
	hier.FullHierarchy = true
	s.Run(hier, "nekbone")
	if s.memoSize() != 3 {
		t.Errorf("memo holds %d entries, want 3: FullHierarchy must be part of the key", s.memoSize())
	}

	serial := sim.Unbiased(2, dramcache.LookupSerial)
	serial.Name = twoWay.Name
	s.Run(serial, "nekbone")
	if s.memoSize() != 4 {
		t.Errorf("memo holds %d entries, want 4: Lookup must be part of the key", s.memoSize())
	}
}

// TestSampleWorkersPureStrategy pins the contract that lets SampleWorkers
// stay out of the memo key: a sampled session running detailed windows on
// 3 worker goroutines returns results deep-equal to a sequential one, so
// memo entries produced at one worker count are valid at any other.
func TestSampleWorkersPureStrategy(t *testing.T) {
	sampled := func(workers int) Params {
		p := tinyParams()
		p.TraceCache = true
		p.Sampling = sim.SamplingConfig{Period: 20_000, DetailLen: 4_000, WarmLen: 2_000, MinIntervals: 2}
		p.SampleWorkers = workers
		return p
	}
	seq := NewSession(sampled(1)).Run(sim.Unbiased(2, dramcache.LookupPredicted), "nekbone")
	par := NewSession(sampled(3)).Run(sim.Unbiased(2, dramcache.LookupPredicted), "nekbone")
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("sampled results differ across SampleWorkers settings:\nworkers=1: %+v\nworkers=3: %+v", seq, par)
	}
	if seq.Sampled == nil || seq.Sampled.Intervals < 2 {
		t.Fatalf("sampled run produced no interval estimates: %+v", seq.Sampled)
	}
}

// TestSampleWorkTotalsCountMemoryForks checks that the session totals
// fold every SampleWork field: without a checkpoint directory each
// sampled point forks every dispatched boundary in memory, so the totals
// over two points must report as many memory forks as dispatches.
func TestSampleWorkTotalsCountMemoryForks(t *testing.T) {
	p := tinyParams()
	p.TraceCache = true
	p.Sampling = sim.SamplingConfig{Period: 20_000, DetailLen: 4_000, WarmLen: 2_000, MinIntervals: 2}
	p.SampleWorkers = 2
	s := NewSession(p)
	s.Run(sim.Unbiased(2, dramcache.LookupPredicted), "nekbone")
	s.Run(sim.ACCORD(2), "nekbone")
	w := s.SampleWorkTotals()
	if w.Dispatched == 0 || w.MemoryForks != w.Dispatched {
		t.Errorf("session totals: memory_forks %d, dispatched %d; want equal and nonzero", w.MemoryForks, w.Dispatched)
	}
}

// TestPlanEnumeratesPoints checks the planning pre-pass against two known
// experiments: tab6 simulates 5 configurations across the 21-workload
// suite, and tab9 (a pure storage table) simulates nothing.
func TestPlanEnumeratesPoints(t *testing.T) {
	s := NewSession(tinyParams())
	e, _ := Find("tab6")
	points := s.Plan(e)
	if want := 5 * len(suite()); len(points) != want {
		t.Errorf("tab6 plan has %d points, want %d", len(points), want)
	}
	seen := make(map[string]bool)
	for _, pt := range points {
		seen[pt.Config.Name] = true
	}
	if !seen["direct-mapped"] || !seen["accord-2way"] {
		t.Errorf("tab6 plan missing expected configs: %v", seen)
	}
	// Planning must not leak zero results into the real memo.
	if s.memoSize() != 0 {
		t.Errorf("planning polluted the session memo with %d entries", s.memoSize())
	}

	e9, _ := Find("tab9")
	if pts := s.Plan(e9); len(pts) != 0 {
		t.Errorf("tab9 plan has %d points, want 0 (analytic table)", len(pts))
	}
}

// TestPrefetchWarmsMemo checks that Prefetch populates the memo so the
// assembly pass performs no further simulations.
func TestPrefetchWarmsMemo(t *testing.T) {
	var progress bytes.Buffer
	p := tinyParams()
	p.Parallelism = 4
	p.Progress = &progress
	s := NewSession(p)

	points := []Point{
		{Config: sim.DirectMapped(), Workload: "nekbone"},
		{Config: sim.PWS(0.85), Workload: "nekbone"},
		{Config: sim.DirectMapped(), Workload: "nekbone"}, // duplicate on purpose
	}
	s.Prefetch(points)
	if got := s.memoSize(); got != 2 {
		t.Fatalf("memo holds %d entries after prefetch, want 2", got)
	}
	ranBefore := strings.Count(progress.String(), " ran ")
	if ranBefore != 2 {
		t.Errorf("prefetch ran %d simulations, want 2", ranBefore)
	}
	s.Speedup(sim.PWS(0.85), "nekbone") // should be served from the memo
	if ran := strings.Count(progress.String(), " ran "); ran != ranBefore {
		t.Error("memoized point re-simulated after prefetch")
	}
}
