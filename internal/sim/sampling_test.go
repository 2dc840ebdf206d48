package sim

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"accord/internal/workloads"
)

// functionalCases are the config families the functional mode must track
// bit-for-bit: direct-mapped, ACCORD set-associative, column-associative,
// and the full SRAM hierarchy. Single-core: detailed mode interleaves
// cores by simulated time, which functional mode (no time) cannot
// reproduce, so byte equality is defined at Cores=1 (see DESIGN.md §9);
// multi-core agreement is covered statistically below.
func functionalCases(seed int64, warm int64) []Config {
	shrink := func(cfg Config) Config {
		cfg.Scale = 8192
		cfg.Cores = 1
		cfg.WarmupInstr = warm
		cfg.MeasureInstr = 40_000
		cfg.Seed = seed
		return cfg
	}
	full := ACCORD(2)
	full.Name = "accord-hier"
	full.FullHierarchy = true
	lru := LRU2Way()
	return []Config{
		shrink(DirectMapped()),
		shrink(ACCORD(2)),
		shrink(CACache()),
		shrink(full),
		shrink(lru),
		shrink(Banshee()),
		shrink(Gemini()),
		shrink(TDRAM(2)),
	}
}

// TestFunctionalWarmStateMatchesDetailed is the randomized differential
// test behind sampling's correctness claim: for every organization, a
// functional warmup and a detailed warmup of the same events leave
// byte-identical state at the boundary once the interval reset has
// zeroed the timing state only the detailed one keeps (core clocks,
// MSHRs, window marks, DRAM timing and statistics): their Snapshots,
// taken after resetIntervalState, must match. Any drift here would
// silently fork sampled runs from the checkpoint path.
func TestFunctionalWarmStateMatchesDetailed(t *testing.T) {
	wls := []string{"libquantum", "milc"}
	seeds := []int64{1, 7, 12345}
	warms := []int64{11_000, 60_000}
	for _, cfg := range functionalCases(1, 0) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			for _, wlName := range wls {
				for _, seed := range seeds {
					for _, warm := range warms {
						c := cfg
						c.Seed = seed
						c.WarmupInstr = warm
						wl := workloads.MustGet(wlName, c.Cores)

						det := New(c, wl)
						det.RunWarmup()
						det.resetIntervalState()
						want, err := det.Snapshot(wlName)
						if err != nil {
							t.Fatalf("detailed Snapshot: %v", err)
						}

						fun := New(c, wl)
						fun.RunWarmupFunctional()
						fun.resetIntervalState()
						got, err := fun.Snapshot(wlName)
						if err != nil {
							t.Fatalf("functional Snapshot: %v", err)
						}

						if !bytes.Equal(want, got) {
							t.Errorf("wl=%s seed=%d warm=%d: functional warm state diverged from detailed (%d vs %d bytes)",
								wlName, seed, warm, len(want), len(got))
						}
					}
				}
			}
		})
	}
}

// sampledBase returns a config pair (exact, sampled) sharing everything
// that affects the simulated system.
func sampledBase(cfg Config) (exact, sampled Config) {
	cfg.Scale = 8192
	cfg.Cores = 4
	cfg.DisableAdaptiveBudgets = true
	cfg.WarmupInstr = 100_000
	cfg.MeasureInstr = 800_000
	cfg.Seed = 1
	exact = cfg
	sampled = cfg
	sampled.Sampling = SamplingConfig{
		Period:       100_000,
		DetailLen:    25_000,
		WarmLen:      10_000,
		MinIntervals: 2,
	}
	return exact, sampled
}

// TestSampledWithinCIOfExact is the equivalence gate: on small golden
// configs, the sampled IPC and hit-rate means must lie within their own
// reported confidence intervals of the exact (fully detailed) run. The
// runs are deterministic, so this is a fixed property of the
// implementation, not a statistical coin flip.
//
// Single-core cases are the principled check: at Cores=1 the sampled
// run's state trajectory is instruction-identical to the exact run's
// (the differential test above proves it byte-for-byte), so its measured
// windows are true systematic samples of the exact run and the CI must
// bracket the exact mean. Multi-core runs take a slightly different
// trajectory — functional round-robin vs detailed time-ordering changes
// the order of first-touch page faults, hence the random frame map — so
// multicore agreement is covered by the separate accord case below at
// the same thresholds, which the implementation meets deterministically.
func TestSampledWithinCIOfExact(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run equivalence test")
	}
	const wlName = "libquantum"
	type tc struct {
		base  Config
		cores int
	}
	cases := []tc{
		{DirectMapped(), 1},
		{ACCORD(2), 1},
		{CACache(), 1},
		{ACCORD(2), 4}, // multicore agreement check
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s-%dc", c.base.Name, c.cores), func(t *testing.T) {
			t.Parallel()
			exactCfg, sampledCfg := sampledBase(c.base)
			exactCfg.Cores = c.cores
			sampledCfg.Cores = c.cores
			wl := workloads.MustGet(wlName, exactCfg.Cores)

			exact := New(exactCfg, wl).Run(wlName)
			sampled := New(sampledCfg, wl).Run(wlName)

			ss := sampled.Sampled
			if ss == nil {
				t.Fatal("sampled run returned no SampleSummary")
			}
			if ss.Intervals != ss.Planned || ss.Intervals < 2 {
				t.Fatalf("expected all %d planned intervals to run, got %d", ss.Planned, ss.Intervals)
			}
			if !ss.IPC.OK || !ss.HitRate.OK {
				t.Fatalf("sampled CIs not OK: ipc=%+v hit=%+v", ss.IPC, ss.HitRate)
			}
			if d := math.Abs(ss.IPC.Mean - exact.MeanIPC()); d > ss.IPC.Half {
				t.Errorf("sampled IPC %.4f±%.4f excludes exact %.4f (off by %.4f)",
					ss.IPC.Mean, ss.IPC.Half, exact.MeanIPC(), d)
			}
			if d := math.Abs(ss.HitRate.Mean - exact.L4.HitRate()); d > ss.HitRate.Half {
				t.Errorf("sampled hit rate %.4f±%.4f excludes exact %.4f (off by %.4f)",
					ss.HitRate.Mean, ss.HitRate.Half, exact.L4.HitRate(), d)
			}
			// The sampled run must be far cheaper in detailed events: its
			// measured+warm detailed instructions are a fraction of the
			// stream it covers.
			if sampled.Instructions >= exact.Instructions {
				t.Errorf("sampled run measured %d instructions, exact %d — sampling saved nothing",
					sampled.Instructions, exact.Instructions)
			}
			// The per-interval series rode along.
			if sampled.Metrics == nil || sampled.Metrics.Series == nil ||
				len(sampled.Metrics.Series.Samples) != ss.Intervals {
				t.Errorf("per-interval series missing or wrong length")
			}
		})
	}
}

// TestSampledEarlyStop checks the Student-t early-stopping path: with a
// loose target CI the run should converge before exhausting the budget
// and report Converged.
func TestSampledEarlyStop(t *testing.T) {
	_, cfg := sampledBase(DirectMapped())
	cfg.MeasureInstr = 3_200_000 // 32 planned intervals
	cfg.Sampling.MinIntervals = 3
	cfg.Sampling.TargetCI = 0.5 // ±50%: trivially reached
	wl := workloads.MustGet("libquantum", cfg.Cores)
	res := New(cfg, wl).Run("libquantum")
	ss := res.Sampled
	if ss == nil {
		t.Fatal("no SampleSummary")
	}
	if !ss.Converged {
		t.Errorf("run did not converge at a ±50%% target (ran %d/%d intervals)", ss.Intervals, ss.Planned)
	}
	if ss.Intervals >= ss.Planned {
		t.Errorf("converged run still used the whole budget: %d/%d", ss.Intervals, ss.Planned)
	}
	if ss.Intervals < cfg.Sampling.MinIntervals {
		t.Errorf("stopped after %d intervals, below MinIntervals %d", ss.Intervals, cfg.Sampling.MinIntervals)
	}
}

// TestWarmKeyIgnoresSampling pins the checkpoint-key exclusion: sampling
// reconfigures only the measured phase, so a sampled and an exact config
// that otherwise match must share a warm key.
func TestWarmKeyIgnoresSampling(t *testing.T) {
	exactCfg, sampledCfg := sampledBase(ACCORD(2))
	wl := workloads.MustGet("libquantum", exactCfg.Cores)
	if warmEntryKey(exactCfg, wl, "libquantum") != warmEntryKey(sampledCfg, wl, "libquantum") {
		t.Error("Sampling changed the warm key; it must be excluded like MeasureInstr")
	}
}

// TestRunWithStoreBypassesSampling: a sampled and an exact run sharing
// one checkpoint directory keep apart. The sampled run neither reads nor
// writes the exact run's warm entry (its boundaries live under the spine
// fingerprint), and the exact run after it still misses once, then
// restores; every result matches a plain Run.
func TestRunWithStoreBypassesSampling(t *testing.T) {
	exactCfg, cfg := sampledBase(DirectMapped())
	wl := workloads.MustGet("libquantum", cfg.Cores)
	dir := t.TempDir()
	res, work := storeRun(cfg, wl, dir, "libquantum")
	if work.LatticeHits != 0 || work.LatticeMisses == 0 {
		t.Errorf("cold sampled run probed %+v, want only misses", work)
	}
	if _, err := os.Stat(filepath.Join(formatDir(dir), warmEntryKey(cfg, wl, "libquantum")+".ckpt")); err == nil {
		t.Error("sampled run wrote the exact run's warm entry")
	}
	if base := New(cfg, wl).Run("libquantum"); !reflect.DeepEqual(res, base) {
		t.Error("sampled run with a checkpoint directory diverged from plain Run")
	}

	want := New(exactCfg, wl).Run("libquantum")
	for i, probe := range []SampleWork{{LatticeMisses: 1}, {LatticeHits: 1}} {
		got, work := storeRun(exactCfg, wl, dir, "libquantum")
		if work.LatticeHits != probe.LatticeHits || work.LatticeMisses != probe.LatticeMisses {
			t.Errorf("exact run %d probed %+v, want %+v", i, work, probe)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("exact run %d beside a sampled lattice diverged from plain Run", i)
		}
	}
}

// TestSamplingValidation is the table-driven guard for misconfigured
// sampling (satellite: clear errors instead of silent misbehavior).
func TestSamplingValidation(t *testing.T) {
	valid := func() Config {
		_, cfg := sampledBase(DirectMapped())
		return cfg
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; empty = must validate
	}{
		{"valid", func(c *Config) {}, ""},
		{"valid-early-stop", func(c *Config) {
			c.Sampling.TargetCI = 0.05
			c.Sampling.MinIntervals = 2
		}, ""},
		{"fields-without-period", func(c *Config) {
			c.Sampling.Period = 0
		}, "Period is zero"},
		{"zero-detail", func(c *Config) { c.Sampling.DetailLen = 0 }, "DetailLen"},
		{"negative-warm", func(c *Config) { c.Sampling.WarmLen = -1 }, "WarmLen"},
		{"layout-overflow", func(c *Config) {
			c.Sampling.DetailLen = 60_000
			c.Sampling.WarmLen = 50_000
		}, "exceed Period"},
		{"target-ci-range", func(c *Config) { c.Sampling.TargetCI = 1.5 }, "TargetCI"},
		{"target-ci-needs-min", func(c *Config) {
			c.Sampling.TargetCI = 0.05
			c.Sampling.MinIntervals = 1
		}, "MinIntervals >= 2"},
		{"adaptive-budgets", func(c *Config) {
			c.DisableAdaptiveBudgets = false
		}, "DisableAdaptiveBudgets"},
		{"epoch-conflict", func(c *Config) { c.EpochInstr = 10_000 }, "EpochInstr"},
		{"period-over-measure", func(c *Config) {
			c.Sampling.Period = c.MeasureInstr + 1
			c.Sampling.DetailLen = 1000
		}, "no complete sampling period"},
		{"min-intervals-over-budget", func(c *Config) {
			c.Sampling.MinIntervals = 100
		}, "MinIntervals 100"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestFunctionalStepZeroAlloc enforces the 0 allocs/event contract on a
// warmed system: steady-state functional stepping must never touch the
// heap (the VM may still allocate page-table leaves on a genuinely new
// page, so the system is warmed until its footprint is fully mapped).
// Each run advances the functional loop by one instruction, which the
// generator's one-event window makes exactly one event.
func TestFunctionalStepZeroAlloc(t *testing.T) {
	for _, cfg := range functionalCases(1, 2_000_000) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.DisableAdaptiveBudgets = true
			wl := workloads.MustGet("libquantum", cfg.Cores)
			s := New(cfg, wl)
			s.RunWarmupFunctional()
			c := s.Cores()[0]
			targets := []int64{0}
			step := func() {
				targets[0] = c.Instructions() + 1
				s.advanceFunctional(targets)
			}
			if avg := testing.AllocsPerRun(50_000, step); avg != 0 {
				t.Errorf("advanceFunctional allocates %.4f per event, want 0", avg)
			}
		})
	}
}

// TestFunctionalSpeedRatio enforces the fast-forward speedup contract in
// the configuration sampling actually runs: functional mode consuming
// trace-cache events versus detailed mode generating its stream, both
// advancing the same warmed single-core system by the same instruction
// budget (per-instruction throughput is the fair unit — detailed mode
// burns extra Step calls on MSHR-full stalls that retire nothing).
//
// Measured ratios on an idle machine are ~3-5x depending on the
// organization and scale (see DESIGN.md §9.5 for why the classic 20-60x
// sampling speedups of cycle-accurate simulators do not appear against a
// detailed model that already costs only a few ns/instruction); the
// floor enforced here is set with margin for noisy CI runners and guards
// against regressions that would gut sampling's reason to exist.
func TestFunctionalSpeedRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-based test")
	}
	const minSpeedup = 1.5
	cfg := functionalCases(1, 500_000)[1] // accord-2way
	cfg.DisableAdaptiveBudgets = true
	gen := workloads.MustGet("libquantum", cfg.Cores)
	tc := workloads.NewTraceCache(1 << 30)
	rep := gen
	rep.Source = tc.Source(gen.Specs, cfg.AnchorLines(), cfg.Seed)

	run := func(wl workloads.Workload, functional bool, n int64) float64 {
		s := New(cfg, wl)
		s.RunWarmupFunctional()
		targets := []int64{s.Cores()[0].Instructions() + n}
		t0 := time.Now()
		if functional {
			s.advanceFunctional(targets)
		} else {
			s.advanceUntil(targets)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	const n = 4_000_000
	_ = run(rep, true, n) // record the stream once, off the clock
	best := 0.0
	for try := 0; try < 3 && best < minSpeedup; try++ {
		detailed := run(gen, false, n)
		functional := run(rep, true, n)
		ratio := detailed / functional
		t.Logf("detailed %.2f ns/instr, functional %.2f ns/instr, ratio %.1fx", detailed, functional, ratio)
		if ratio > best {
			best = ratio
		}
	}
	if best < minSpeedup {
		t.Errorf("functional fast-forward only %.1fx faster than detailed, want >= %.1fx", best, minSpeedup)
	}
}
