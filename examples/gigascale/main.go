// Gigascale demonstrates that the simulator handles the paper's actual
// configuration — a full 4 GB DRAM cache over 128 GB of PCM, not the
// scaled-down models the experiments use for speed — and that interval
// sampling makes such a design point affordable: a 2-billion-instruction
// stream over the 64-million-line tag array, warmed functionally and
// measured in SMARTS-style detailed windows.
//
// It runs the same sampled simulation four times: on one worker
// (SampleWorkers=1), on a worker pool that executes the detailed
// windows concurrently off the functional spine, then twice more
// against a checkpoint directory. The populating run probes every
// interval boundary, misses, and saves boundary 0, the state after
// functional warmup, in line; at full scale its tag records alone are
// 576 MiB. Its wall-clock against the plain parallel run is the cost of
// that one save. The resumed run restores boundary 0 instead of warming
// up and computes the rest, forking each boundary to the workers in
// memory as the plain runs do; its wall-clock against the populating
// run is what skipping the functional warmup buys. All four produce
// byte-identical results by construction; the example checks that
// too.
//
// Expect roughly a gigabyte of resident memory (per live fork). The
// windows are fixed (adaptive sizing is disabled) so the instruction
// budget is exactly what is configured. Pass -quick for a scaled-down
// smoke run, -workers to size the pool, -spine-dir to keep the
// checkpoint directory across invocations (so a second invocation
// starts from the saved boundary 0).
//
//	go run ./examples/gigascale
//	go run ./examples/gigascale -workers 8
//	go run ./examples/gigascale -quick
//	go run ./examples/gigascale -spine-dir /tmp/accord-spine
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"accord"
)

func main() {
	workers := flag.Int("workers", 8, "detailed-window worker goroutines for the parallel run")
	quick := flag.Bool("quick", false, "scaled-down smoke run (seconds instead of minutes)")
	spineDir := flag.String("spine-dir", "", "checkpoint directory (empty = a temp directory deleted on exit)")
	flag.Parse()

	cfg := accord.ACCORD(2)
	cfg.Scale = 1 // the real thing: 4 GB cache, 128 GB PCM
	cfg.Cores = 8
	cfg.WarmupInstr = 50_000_000   // per core: 400M warmup instructions
	cfg.MeasureInstr = 200_000_000 // per core: 1.6B measured-phase instructions
	cfg.DisableAdaptiveBudgets = true

	// SMARTS-style interval sampling: fast-forward the bulk of every
	// 20M-instruction period functionally (tags, dirty bits, policy and
	// page-table state advance; timing is skipped), re-warm timing state
	// for 500k instructions, then measure a 1M-instruction detailed
	// window. ~7% of the stream runs detailed; estimates carry
	// Student-t 95% confidence intervals.
	cfg.Sampling = accord.SamplingConfig{
		Period:       20_000_000,
		DetailLen:    1_000_000,
		WarmLen:      500_000,
		MinIntervals: 8,
		TargetCI:     0.05,
	}
	if *quick {
		cfg.Scale = 4096
		cfg.WarmupInstr = 100_000
		cfg.MeasureInstr = 1_200_000
		cfg.Sampling = accord.SamplingConfig{
			Period:       200_000,
			DetailLen:    40_000,
			WarmLen:      20_000,
			MinIntervals: 2,
			TargetCI:     0.05,
		}
	}

	// Share one recording of the workload stream so both runs replay the
	// identical event sequence (the first run records it as it goes) and
	// the parallel run's forks can replay their intervals from it.
	wl, err := accord.GetWorkload("mcf", cfg.Cores)
	if err != nil {
		panic(err)
	}
	traces := accord.NewTraceCache(0)
	wl.Source = traces.Source(wl.Specs, cfg.AnchorLines(), cfg.Seed)

	totalInstr := (cfg.WarmupInstr + cfg.MeasureInstr) * int64(cfg.Cores)
	fmt.Printf("configuration: %s\n", cfg.Name)
	if cfg.L4Capacity() < 1<<30 {
		fmt.Printf("  DRAM cache: %d MiB (%d lines), %d-way\n",
			cfg.L4Capacity()>>20, cfg.L4Lines(), cfg.Ways)
	} else {
		fmt.Printf("  DRAM cache: %d GB (%d million lines), %d-way\n",
			cfg.L4Capacity()>>30, cfg.L4Lines()>>20, cfg.Ways)
	}
	fmt.Printf("  main memory: %d GB PCM\n", accord.NVMCapacityFull>>30)
	fmt.Printf("  cores: %d, %d total instructions (%.1fM warmup + %.1fM measured per core)\n",
		cfg.Cores, totalInstr, float64(cfg.WarmupInstr)/1e6, float64(cfg.MeasureInstr)/1e6)
	fmt.Printf("  sampling: %.1fM period, %.2fM detailed + %.2fM re-warm per interval\n\n",
		float64(cfg.Sampling.Period)/1e6, float64(cfg.Sampling.DetailLen)/1e6,
		float64(cfg.Sampling.WarmLen)/1e6)

	run := func(workers int, spine string) (accord.Result, accord.SampleWork, time.Duration) {
		c := cfg
		c.SampleWorkers = workers
		c.SpineCheckpointDir = spine
		s := accord.NewSystem(c, wl)
		start := time.Now()
		res := s.Run("mcf")
		return res, s.SampleWork(), time.Since(start)
	}

	fmt.Printf("one-worker run...\n")
	oneRes, _, oneT := run(1, "")
	fmt.Printf("  %.1fs wall (%.1f M instr/s)\n",
		oneT.Seconds(), float64(oneRes.InstructionsTotal)/oneT.Seconds()/1e6)

	fmt.Printf("parallel run (%d workers)...\n", *workers)
	parRes, parWork, parT := run(*workers, "")
	fmt.Printf("  %.1fs wall (%.1f M instr/s) — %.2fx over one worker\n",
		parT.Seconds(), float64(parRes.InstructionsTotal)/parT.Seconds()/1e6,
		oneT.Seconds()/parT.Seconds())

	// The functional spine is the serial fraction; the detailed windows
	// are the parallel work. With W workers the windows overlap each
	// other and the spine, so wall-clock approaches
	// max(spine, detail/W) — the utilization split shows how close.
	fmt.Printf("  spine (serial):   %.1fs (%.0f%% of wall)\n",
		parWork.SpineTime.Seconds(), 100*parWork.SpineTime.Seconds()/parT.Seconds())
	fmt.Printf("  detailed windows: %.1fs across %d workers (%.0f%% busy)\n",
		parWork.DetailTime.Seconds(), parWork.Workers,
		100*parWork.DetailTime.Seconds()/(parT.Seconds()*float64(parWork.Workers)))
	fmt.Printf("  intervals: %d dispatched, %d committed, %d speculative discarded\n",
		parWork.Dispatched, parWork.Committed, parWork.Discarded)
	if !reflect.DeepEqual(oneRes, parRes) {
		fmt.Println("  ERROR: parallel result diverged from the one-worker run")
	} else {
		fmt.Println("  results identical to the one-worker run: yes")
	}

	// Third leg: memoize the functional warmup through the checkpoint
	// directory. The populating run misses every boundary it probes and
	// saves boundary 0 in line, so its overhead is that one snapshot and
	// write. The resumed run hits boundary 0 and fast-forwards the rest
	// from it, so the spine shrinks by the functional warmup alone.
	dir := *spineDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "accord-spine")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	fmt.Printf("lattice-populating run (%d workers, boundary 0 to %s)...\n", *workers, dir)
	popRes, popWork, popT := run(*workers, dir)
	fmt.Printf("  %.1fs wall — %.1f%% over the plain parallel run (%d lattice misses; %.1fs saving)\n",
		popT.Seconds(), 100*(popT.Seconds()-parT.Seconds())/parT.Seconds(),
		popWork.LatticeMisses, popWork.SpineSaveTime.Seconds())

	fmt.Printf("lattice-resumed run (%d workers)...\n", *workers)
	resRes, resWork, resT := run(*workers, dir)
	fmt.Printf("  %.1fs wall — %.2fx over the populating run, %.2fx over one worker\n",
		resT.Seconds(), popT.Seconds()/resT.Seconds(), oneT.Seconds()/resT.Seconds())
	fmt.Printf("  lattice: %d hits, %d misses; spine %.1fs (was %.1fs cold)\n",
		resWork.LatticeHits, resWork.LatticeMisses,
		resWork.SpineTime.Seconds(), popWork.SpineTime.Seconds())
	if !reflect.DeepEqual(parRes, popRes) || !reflect.DeepEqual(parRes, resRes) {
		fmt.Println("  ERROR: lattice run results diverged from the plain runs")
	} else {
		fmt.Println("  results identical to plain runs: yes")
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	s := parRes.Sampled
	fmt.Printf("\ncovered %d instructions per run\n", parRes.InstructionsTotal)
	fmt.Printf("measured %d detailed intervals of %d planned", s.Intervals, s.Planned)
	if s.Converged {
		fmt.Printf(" (stopped early at the %.0f%% CI target)", 100*cfg.Sampling.TargetCI)
	}
	fmt.Println()
	fmt.Printf("  IPC       %.4f ± %.4f (95%% CI)\n", s.IPC.Mean, s.IPC.Half)
	fmt.Printf("  hit rate  %.4f ± %.4f\n", s.HitRate.Mean, s.HitRate.Half)
	fmt.Printf("  MPKI      %.3f ± %.3f\n", s.MPKI.Mean, s.MPKI.Half)
	fmt.Printf("way-prediction accuracy: %.1f%%\n", 100*parRes.Accuracy())
	fmt.Printf("simulator resident memory: %d MB\n", mem.HeapInuse>>20)
	fmt.Println("\nThe evaluation harness (cmd/accordbench) uses 1/256-scale")
	fmt.Println("capacities with footprints scaled by the same factor, which")
	fmt.Println("preserves hit-rate and bandwidth behaviour; pass -sample")
	fmt.Println("(and -sample-workers) to run its design points with this")
	fmt.Println("interval-sampling machinery.")
}
