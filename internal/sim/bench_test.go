package sim

import (
	"fmt"
	"testing"

	"accord/internal/workloads"
)

// BenchmarkFunctionalStep measures the per-instruction cost of the
// functional fast-forward path in the configuration sampling runs it:
// consuming trace-cache windows with StepFunctionalBatch, against the
// detailed path generating its own stream over the same instruction
// budget. Each iteration warms a fresh system off the clock and times
// one 2M-instr advance, so ns/op ÷ 2e6 is ns/instruction; allocs/op on
// the functional variant is the zero-alloc contract (also enforced per
// event by TestFunctionalStepZeroAlloc). The functional/detailed ratio
// is the sampling speedup DESIGN.md §9.5 discusses.
func BenchmarkFunctionalStep(b *testing.B) {
	cfg := ACCORD(2)
	cfg.Scale = 8192
	cfg.Cores = 1
	cfg.WarmupInstr = 500_000
	cfg.MeasureInstr = 40_000
	cfg.Seed = 1
	cfg.DisableAdaptiveBudgets = true

	gen := workloads.MustGet("libquantum", cfg.Cores)
	tc := workloads.NewTraceCache(1 << 30)
	rep := gen
	rep.Source = tc.Source(gen.Specs, cfg.AnchorLines(), cfg.Seed)

	const chunk = 2_000_000
	// Record the stream once, off the clock, so timed replays never
	// extend the recording.
	{
		s := New(cfg, rep)
		s.RunWarmupFunctional()
		s.advanceFunctional([]int64{s.Cores()[0].Instructions() + chunk})
	}

	run := func(b *testing.B, wl workloads.Workload, functional bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := New(cfg, wl)
			s.RunWarmupFunctional()
			targets := []int64{s.Cores()[0].Instructions() + chunk}
			b.StartTimer()
			if functional {
				s.advanceFunctional(targets)
			} else {
				s.advanceUntil(targets)
			}
		}
	}

	b.Run("functional", func(b *testing.B) { run(b, rep, true) })
	b.Run("detailed", func(b *testing.B) { run(b, gen, false) })
}

// BenchmarkSampledRun measures one full design point end to end: a
// SMARTS-style sampled run (functional fast-forward between detailed
// windows) against the exact fully-detailed run it estimates. Same
// config pair as TestSampledWithinCIOfExact, so the wall-clock gap here
// is exactly what buys the equivalence that test proves.
func BenchmarkSampledRun(b *testing.B) {
	exact, sampled := sampledBase(ACCORD(2))
	run := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wl := workloads.MustGet("libquantum", cfg.Cores)
			if res := New(cfg, wl).Run("libquantum"); res.Instructions == 0 {
				b.Fatal("run retired no instructions")
			}
		}
	}
	b.Run("sampled", func(b *testing.B) { run(b, sampled) })
	b.Run("exact", func(b *testing.B) { run(b, exact) })
}

// BenchmarkSampledParallel measures one sampled run at one, two and
// four workers: detailed windows fork off the functional spine onto a
// worker pool and commit in interval order, so wall-clock should
// approach max(spine, detail/workers) on real cores. Results are
// byte-identical at every worker count
// (TestSampledParallelMatchesSequential), so the ratio between
// sub-benchmarks is pure execution speedup — on a
// single-hardware-thread host the workers>1 variants honestly report
// ~1x plus coordination overhead. The stream is recorded once off the
// clock; every timed run replays it.
func BenchmarkSampledParallel(b *testing.B) {
	_, cfg := sampledBase(ACCORD(2))
	gen := workloads.MustGet("libquantum", cfg.Cores)
	tc := workloads.NewTraceCache(1 << 30)
	wl := gen
	wl.Source = tc.Source(gen.Specs, cfg.AnchorLines(), cfg.Seed)

	// Record the stream once, off the clock.
	New(cfg, wl).Run("libquantum")

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.SampleWorkers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := New(c, wl).Run("libquantum"); res.Instructions == 0 {
					b.Fatal("run retired no instructions")
				}
			}
		})
	}
}

// BenchmarkSpineFork measures one interval fork of a parallel sampled
// run, the layer the benchmark's traced run cannot isolate (its probes
// wrap the L4, so traced runs fork through the codec). The system is the
// benchmark's sampled configuration: ACCORD 2-way at Scale 64 (a 1 M-line
// L4), 8 cores on mcf, trace-cache cursors, warmed functionally and
// reset to an interval boundary. codec encodes the boundary (Snapshot)
// and restores it into a fork;
// copy copies the live system into a holder and the holder into a fork,
// the two copies an in-memory fork costs. ns/fork is ns/op; B/op shows
// the codec's blob per boundary against the copy's zero.
func BenchmarkSpineFork(b *testing.B) {
	const wlName = "mcf"
	cfg := ACCORD(2)
	cfg.Cores = 8
	cfg.Scale = 64
	cfg.DisableAdaptiveBudgets = true
	cfg.WarmupInstr = 1_250_000
	cfg.Seed = 1
	gen := workloads.MustGet(wlName, cfg.Cores)
	wl := gen
	wl.Source = workloads.NewTraceCache(0).Source(gen.Specs, cfg.AnchorLines(), cfg.Seed)

	live := New(cfg, wl)
	live.RunWarmupFunctional()
	live.resetIntervalState()
	holder, fork := New(cfg, wl), New(cfg, wl)

	fork1 := func(b *testing.B, f func() error) {
		if err := f(); err != nil { // warm the destination's buffers
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/fork")
	}
	b.Run("codec", func(b *testing.B) {
		fork1(b, func() error {
			blob, err := live.Snapshot(wlName)
			if err != nil {
				return err
			}
			return fork.Restore(blob, wlName)
		})
	})
	b.Run("copy", func(b *testing.B) {
		fork1(b, func() error {
			if err := holder.copyFunctionalFrom(live); err != nil {
				return err
			}
			return fork.copyFunctionalFrom(holder)
		})
	})
}
