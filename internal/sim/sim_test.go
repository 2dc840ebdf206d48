package sim

import (
	"testing"

	"accord/internal/cache"
	"accord/internal/cpu"
	"accord/internal/dramcache"
	"accord/internal/workloads"
)

// quickConfig shrinks the run so unit tests stay fast.
func quickConfig(base Config) Config {
	base.Scale = 4096 // 1 MB model cache
	base.WarmupInstr = 150_000
	base.MeasureInstr = 150_000
	base.Cores = 4
	return base
}

func runQuick(t *testing.T, cfg Config, wl string) Result {
	t.Helper()
	w, err := workloads.Get(wl, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, w).Run(wl)
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.L4CapacityFull = 0 },
		func(c *Config) { c.Ways = 0 },
		func(c *Config) { c.MeasureInstr = 0 },
		func(c *Config) { c.WarmupInstr = -1 },
		// A 1 GiB L4 and 11 M NVM pages are fine at Scale 3, but the
		// scaled L2 (87,381 bytes) holds no power-of-two set count.
		func(c *Config) { c.L4CapacityFull, c.Scale, c.FullHierarchy = 3<<30, 3, true },
	}
	for i, m := range mutations {
		c := Default()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

// TestValidateMeansNewBuilds holds Validate to its contract for every
// organization Named knows, at associativities 1, 2, 3, 4 and 8 and at
// every power-of-two scale from 2^10 to 2^34, on one core: a Config that
// passes Validate must assemble without panicking. Scales past 2^25
// leave the NVM without a page and scales near 2^26 the L4 without a
// set, so both kinds of rejection are exercised.
func TestValidateMeansNewBuilds(t *testing.T) {
	orgs := []string{
		"direct", "parallel", "serial", "idealized", "perfect", "unbiased", "pws", "gws",
		"accord", "mru", "partialtag", "ca", "lru", "banshee", "gemini", "tdram",
	}
	valid, rejected := 0, 0
	for _, org := range orgs {
		for _, ways := range []int{1, 2, 3, 4, 8} {
			for shift := 10; shift <= 34; shift++ {
				cfg, err := Named(org, ways, 0.85)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Cores = 1
				cfg.Scale = 1 << shift
				if cfg.Validate() != nil {
					rejected++
					continue
				}
				valid++
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s ways=%d scale=2^%d passed Validate but New panicked: %v", org, ways, shift, r)
						}
					}()
					New(cfg, workloads.MustGet("mcf", 1))
				}()
			}
		}
	}
	if valid == 0 || rejected == 0 {
		t.Errorf("%d configs valid, %d rejected; want both kinds", valid, rejected)
	}
}

func TestScaledCapacity(t *testing.T) {
	c := Default()
	if c.L4Capacity() != (4<<30)/256 {
		t.Errorf("scaled capacity = %d", c.L4Capacity())
	}
	if c.L4Lines() != uint64(c.L4Capacity()/64) {
		t.Errorf("lines = %d", c.L4Lines())
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	cfg := quickConfig(DirectMapped())
	res := runQuick(t, cfg, "libquantum")
	if len(res.IPC) != cfg.Cores {
		t.Fatalf("IPC entries = %d, want %d", len(res.IPC), cfg.Cores)
	}
	width := cpu.DefaultParams().IssueWidth
	for i, ipc := range res.IPC {
		if ipc <= 0 || ipc > float64(width) {
			t.Errorf("core %d IPC = %v out of (0,%d]", i, ipc, width)
		}
	}
	if res.L4.Reads == 0 {
		t.Error("no L4 reads recorded")
	}
	hr := res.HitRate()
	if hr <= 0 || hr >= 1 {
		t.Errorf("hit rate = %v not in (0,1)", hr)
	}
	// Warmup crossing can overshoot by up to one event's gap per core, so
	// the measured window may fall slightly short of the nominal budget.
	if min := int64(float64(cfg.Cores) * float64(cfg.MeasureInstr) * 0.9); res.Instructions < min {
		t.Errorf("measured %d instructions, want >= %d", res.Instructions, min)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles measured")
	}
	if res.PCM.Reads == 0 {
		t.Error("no NVM traffic; misses must reach main memory")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickConfig(ACCORD(2))
	a := runQuick(t, cfg, "gcc")
	b := runQuick(t, cfg, "gcc")
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("IPC diverged on core %d: %v vs %v", i, a.IPC[i], b.IPC[i])
		}
	}
	if a.L4 != b.L4 {
		t.Error("L4 stats diverged between identical runs")
	}
}

func TestAssociativityImprovesHitRate(t *testing.T) {
	// The foundational Figure 1(a) trend on a conflict-sensitive workload.
	dm := runQuick(t, quickConfig(DirectMapped()), "soplex")
	ideal8 := runQuick(t, quickConfig(Idealized(8)), "soplex")
	if ideal8.HitRate() <= dm.HitRate() {
		t.Errorf("8-way hit rate %.3f not above direct-mapped %.3f",
			ideal8.HitRate(), dm.HitRate())
	}
}

func TestWeightedSpeedup(t *testing.T) {
	a := Result{IPC: []float64{1, 2}}
	b := Result{IPC: []float64{1, 1}}
	if ws := WeightedSpeedup(a, b); ws != 1.5 {
		t.Errorf("weighted speedup = %v, want 1.5", ws)
	}
	if ws := WeightedSpeedup(a, Result{IPC: []float64{1}}); ws != 0 {
		t.Errorf("mismatched cores speedup = %v, want 0", ws)
	}
	if ws := WeightedSpeedup(Result{}, Result{}); ws != 0 {
		t.Errorf("empty speedup = %v, want 0", ws)
	}
	if ws := WeightedSpeedup(a, Result{IPC: []float64{0, 0}}); ws != 0 {
		t.Errorf("zero-baseline speedup = %v, want 0", ws)
	}
}

func TestMeanIPC(t *testing.T) {
	r := Result{IPC: []float64{1, 3}}
	if r.MeanIPC() != 2 {
		t.Errorf("mean = %v", r.MeanIPC())
	}
	if (Result{}).MeanIPC() != 0 {
		t.Error("empty mean not 0")
	}
}

func TestNewPanicsOnBadInputs(t *testing.T) {
	cfg := quickConfig(Default())
	wl := workloads.MustGet("milc", cfg.Cores)

	t.Run("invalid config", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		bad := cfg
		bad.Cores = 0
		New(bad, wl)
	})
	t.Run("core mismatch", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		New(cfg, workloads.MustGet("milc", cfg.Cores+1))
	})
}

func TestConfigCatalog(t *testing.T) {
	cases := []struct {
		cfg  Config
		ways int
	}{
		{DirectMapped(), 1},
		{Parallel(8), 8},
		{Serial(2), 2},
		{Idealized(4), 4},
		{PerfectWP(2), 2},
		{PWS(0.85), 2},
		{GWS(), 2},
		{ACCORD(2), 2},
		{ACCORD(8), 8},
		{MRU(2), 2},
		{PartialTag(2), 2},
		{LRU2Way(), 2},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.cfg.Name, err)
		}
		if c.cfg.Ways != c.ways {
			t.Errorf("%s: ways = %d, want %d", c.cfg.Name, c.cfg.Ways, c.ways)
		}
		if c.cfg.Name == "" {
			t.Error("config without name")
		}
	}
	ca := CACache()
	if err := ca.Validate(); err != nil || ca.BackendName() != "ca" {
		t.Errorf("CA config: %v", err)
	}
	if !LRU2Way().LRUReplacement {
		t.Error("LRU2Way without LRU replacement")
	}
}

func TestCACacheRuns(t *testing.T) {
	res := runQuick(t, quickConfig(CACache()), "libquantum")
	if res.L4.Reads == 0 || res.HitRate() <= 0 {
		t.Errorf("CA run produced no sensible stats: %+v", res.L4)
	}
}

func TestACCORDPredictsWell(t *testing.T) {
	// On a high-spatial-locality workload ACCORD's accuracy must be high.
	res := runQuick(t, quickConfig(ACCORD(2)), "libquantum")
	if acc := res.Accuracy(); acc < 0.85 {
		t.Errorf("ACCORD accuracy on libquantum = %.3f, want > 0.85", acc)
	}
}

func TestParallelLookupCostsBandwidth(t *testing.T) {
	par := runQuick(t, quickConfig(Parallel(2)), "soplex")
	if ppr := par.L4.ProbesPerRead(); ppr < 1.99 {
		t.Errorf("parallel 2-way probes/read = %.2f, want ~2", ppr)
	}
	dm := runQuick(t, quickConfig(DirectMapped()), "soplex")
	if ppr := dm.L4.ProbesPerRead(); ppr > 1.01 {
		t.Errorf("direct-mapped probes/read = %.2f, want ~1", ppr)
	}
}

func TestLookupStringInNames(t *testing.T) {
	if Parallel(4).Name != "4way-"+dramcache.LookupParallel.String() {
		t.Errorf("name = %q", Parallel(4).Name)
	}
}

func TestFullHierarchyMode(t *testing.T) {
	cfg := quickConfig(ACCORD(2))
	cfg.FullHierarchy = true
	res := runQuick(t, cfg, "libquantum")
	if res.L3.Hits == 0 || res.L3.Misses == 0 {
		t.Errorf("full-hierarchy run recorded no L3 activity: %+v", res.L3)
	}
	if res.L4.Reads == 0 {
		t.Error("no L4 traffic in full-hierarchy mode")
	}
	// The SRAM levels filter traffic: L4 reads must be fewer than the
	// total L3 lookups.
	if res.L4.Reads >= res.L3.Hits+res.L3.Misses {
		t.Errorf("L4 reads %d not filtered below L3 lookups %d",
			res.L4.Reads, res.L3.Hits+res.L3.Misses)
	}
	// Dirty L3 victims flow to the DRAM cache as writebacks.
	if res.L4.Writebacks == 0 {
		t.Error("no L4 writebacks from L3 evictions")
	}
	// DCP+way state makes resident writebacks probe-free hits.
	if res.L4.WritebackHits == 0 {
		t.Error("no writeback hits; DCP path seems broken")
	}
}

func TestFullHierarchyDeterminism(t *testing.T) {
	cfg := quickConfig(DirectMapped())
	cfg.FullHierarchy = true
	a := runQuick(t, cfg, "gcc")
	b := runQuick(t, cfg, "gcc")
	if a.L4 != b.L4 || a.L3 != b.L3 {
		t.Error("full-hierarchy runs diverged")
	}
}

func TestL4DrivenModeHasNoL3Stats(t *testing.T) {
	res := runQuick(t, quickConfig(DirectMapped()), "milc")
	if res.L3 != (cache.Stats{}) {
		t.Errorf("L4-driven mode populated L3 stats: %+v", res.L3)
	}
}

func TestACCORDSWSKConfig(t *testing.T) {
	cfg := ACCORDSWSK(8, 3)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "accord-sws(8,4)" {
		t.Errorf("name = %q", cfg.Name)
	}
	res := runQuick(t, quickConfig(cfg), "soplex")
	// Miss confirmation is capped at alternates+1 probes.
	if ppr := res.L4.ProbesPerRead(); ppr > 4.0001 {
		t.Errorf("SWS(8,4) probes/read = %.3f, want <= 4", ppr)
	}
}

func TestACCORDWithTablesConfig(t *testing.T) {
	small := quickConfig(ACCORDWithTables(4))
	big := quickConfig(ACCORDWithTables(256))
	if small.Name == big.Name {
		t.Error("table-size configs share a name")
	}
	a := runQuick(t, small, "libquantum")
	b := runQuick(t, big, "libquantum")
	// More RLT entries can only help accuracy on a spatially local stream.
	if b.Accuracy()+0.02 < a.Accuracy() {
		t.Errorf("256-entry tables (%.3f) worse than 4-entry (%.3f)", b.Accuracy(), a.Accuracy())
	}
}

func TestWorkloadAnchorLines(t *testing.T) {
	// With an anchor, growing the cache must not grow the footprint: the
	// bigger cache then genuinely captures more of the working set.
	small := quickConfig(DirectMapped())
	small.WorkloadAnchorLines = small.L4Lines()
	big := small
	big.L4CapacityFull *= 4
	rs := runQuick(t, small, "soplex")
	rb := runQuick(t, big, "soplex")
	if rb.HitRate() <= rs.HitRate() {
		t.Errorf("4x cache with anchored footprint: hit %.3f not above %.3f",
			rb.HitRate(), rs.HitRate())
	}
	// Without the anchor, footprints scale with the cache and hit rates
	// stay roughly flat.
	bigNoAnchor := quickConfig(DirectMapped())
	bigNoAnchor.L4CapacityFull *= 4
	rn := runQuick(t, bigNoAnchor, "soplex")
	if diff := rn.HitRate() - rs.HitRate(); diff > 0.15 {
		t.Errorf("unanchored scaling changed hit rate by %.3f; expected rough invariance", diff)
	}
}

func TestDisableAdaptiveBudgets(t *testing.T) {
	cfg := quickConfig(DirectMapped())
	cfg.DisableAdaptiveBudgets = true
	// xalancbmk has ~2 MPKI; adaptive mode would inflate the window far
	// beyond the configured instructions.
	res := runQuick(t, cfg, "xalancbmk")
	maxInstr := int64(float64(cfg.Cores) * float64(cfg.WarmupInstr+cfg.MeasureInstr) * 1.6)
	if res.Instructions > maxInstr {
		t.Errorf("measured %d instructions despite fixed budgets (cap %d)", res.Instructions, maxInstr)
	}
}

func TestTraceReplayThroughSim(t *testing.T) {
	// A trace captured from a generator must be runnable end to end.
	cfg := quickConfig(ACCORD(2))
	cfg.DisableAdaptiveBudgets = true
	src := workloads.MustGet("gcc", cfg.Cores)
	st := workloads.NewStream(src.Specs[0], cfg.L4Lines(), cfg.Cores, 1)
	events := make([]workloads.Event, 20000)
	for i := range events {
		st.Next(&events[i])
	}
	wl, err := workloads.TraceWorkload("gcc-trace", events, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	res := New(cfg, wl).Run(wl.Name)
	if res.L4.Reads == 0 || res.MeanIPC() <= 0 {
		t.Errorf("trace replay degenerate: reads=%d ipc=%v", res.L4.Reads, res.MeanIPC())
	}
}

func TestSeedRobustness(t *testing.T) {
	// Different seeds change the rng streams and VM layout but must not
	// change the qualitative behaviour of a workload.
	cfg := quickConfig(DirectMapped())
	a := runQuick(t, cfg, "libquantum")
	cfg.Seed = 99
	b := runQuick(t, cfg, "libquantum")
	if diff := a.HitRate() - b.HitRate(); diff > 0.08 || diff < -0.08 {
		t.Errorf("hit rate seed-sensitive: %.3f vs %.3f", a.HitRate(), b.HitRate())
	}
}

func TestIdealizedNeverLosesToDirectMapped(t *testing.T) {
	// The Figure 1(c) oracle adds hit rate at zero cost; it must not lose
	// measurably on any sampled workload.
	for _, wl := range []string{"soplex", "sphinx3", "mcf"} {
		dm := runQuick(t, quickConfig(DirectMapped()), wl)
		id := runQuick(t, quickConfig(Idealized(2)), wl)
		if ws := WeightedSpeedup(id, dm); ws < 0.97 {
			t.Errorf("%s: idealized 2-way speedup %.3f < 0.97", wl, ws)
		}
	}
}

func TestGWSAccuracyTracksSpatialLocality(t *testing.T) {
	// Figure 7's central contrast: ganged steering predicts nearly
	// perfectly on page-streaming workloads and falls back on sparse ones.
	spatial := runQuick(t, quickConfig(ACCORD(2)), "libquantum")
	sparse := runQuick(t, quickConfig(ACCORD(2)), "mcf")
	if spatial.Accuracy() <= sparse.Accuracy() {
		t.Errorf("accuracy ordering wrong: libquantum %.3f <= mcf %.3f",
			spatial.Accuracy(), sparse.Accuracy())
	}
	if spatial.Accuracy() < 0.9 {
		t.Errorf("libquantum ACCORD accuracy = %.3f, want > 0.9", spatial.Accuracy())
	}
}

func TestLRUBandwidthTax(t *testing.T) {
	// Footnote 2: LRU replacement pays a DRAM write per hit.
	res := runQuick(t, quickConfig(LRU2Way()), "sphinx3")
	if res.L4.ReplStateOps != res.L4.ReadHits {
		t.Errorf("replacement-state writes %d != hits %d", res.L4.ReplStateOps, res.L4.ReadHits)
	}
}
