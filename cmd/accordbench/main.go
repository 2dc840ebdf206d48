// Command accordbench regenerates the paper's tables and figures.
//
//	accordbench                      # run every experiment at full quality
//	accordbench -experiment fig10    # one experiment
//	accordbench -quick               # reduced scale for a fast look
//	accordbench -parallel 8          # bound the simulation worker pool
//	accordbench -list                # list experiment IDs
//
// Output is plain-text tables whose rows/series correspond to the paper's
// artifacts; EXPERIMENTS.md records a reference run. Simulations fan out
// across a worker pool sized by GOMAXPROCS (override with -parallel);
// tables are byte-identical at every parallelism setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"accord/internal/exp"
	"accord/internal/metrics"
	"accord/internal/sim"
)

// manifestConfig records the effective benchmark parameters for the run
// manifest (Progress is an io.Writer and does not serialize).
func manifestConfig(p exp.Params, experiment string) map[string]interface{} {
	return map[string]interface{}{
		"experiment":     experiment,
		"scale":          p.Scale,
		"cores":          p.Cores,
		"warmup_instr":   p.WarmupInstr,
		"measure_instr":  p.MeasureInstr,
		"epoch_instr":    p.EpochInstr,
		"parallelism":    p.Parallelism,
		"trace_cache":    p.TraceCache,
		"sample_period":  p.Sampling.Period,
		"sample_ci":      p.Sampling.TargetCI,
		"sample_workers": p.SampleWorkers,
		"checkpoint_dir": p.CheckpointDir,
	}
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment ID to run (default: all); see -list")
		quick      = flag.Bool("quick", false, "reduced scale and duration")
		scale      = flag.Int64("scale", 0, "override capacity scale divisor")
		cores      = flag.Int("cores", 0, "override core count")
		seed       = flag.Int64("seed", 1, "simulation seed")
		parallel   = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = sequential)")
		markdown   = flag.Bool("md", false, "render tables as GitHub-flavored markdown")
		verbose    = flag.Bool("v", false, "log each simulation as it completes")
		metricsOut = flag.String("metrics-out", "", "write structured metrics for every simulation to this file (.csv for CSV + manifest sidecar, otherwise JSON)")
		epoch      = flag.Int64("epoch", -1, "metrics sampling epoch in retired instructions summed over cores (-1 = auto when -metrics-out is set, 0 = final snapshots only)")
		sample     = flag.Int64("sample", 0, "interval-sampling period in instructions per core (0 = exact detailed runs); sampled tables are estimates whose CIs go to -metrics-out")
		ci         = flag.Float64("ci", 0.05, "with -sample: stop each run early once its IPC estimate's relative CI half-width reaches this (0 = run every planned interval)")
		sampleWkrs = flag.Int("sample-workers", 0, "with -sample: worker goroutines per simulation running detailed windows off the functional spine (0 = GOMAXPROCS; 1 runs the same pipeline with one worker; results are identical at any setting)")
		ckptDir    = flag.String("checkpoint-dir", "", "checkpoint directory shared by every design point: exact points restore their warm state from it and sampled points their functionally warmed boundary 0, when stored, and populate it otherwise (results are byte-identical either way)")
		traceCache = flag.Bool("trace-cache", true, "share one recording of each workload stream across every design point instead of re-generating it per run")
		traceMB    = flag.Int64("trace-cache-mb", 0, "trace cache byte budget in MiB (0 = default)")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-6s %-11s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	p := exp.DefaultParams()
	if *quick {
		p = exp.QuickParams()
	}
	if *scale > 0 {
		p.Scale = *scale
	}
	if *cores > 0 {
		p.Cores = *cores
	}
	p.Seed = *seed
	p.Parallelism = *parallel
	p.CheckpointDir = *ckptDir
	p.TraceCache = *traceCache
	p.TraceCacheBytes = *traceMB << 20
	if *verbose {
		p.Progress = os.Stderr
	}
	switch {
	case *epoch >= 0:
		p.EpochInstr = *epoch
	case *metricsOut != "":
		// Auto: ~8 epochs across the nominal measured window.
		p.EpochInstr = p.MeasureInstr * int64(p.Cores) / 8
	}
	if *sample > 0 {
		// Interval sampling replaces the epoch series with a per-interval
		// one and takes over the measured-phase layout (Session.apply
		// forces the compatible budget settings).
		sc := sim.DefaultSampling(*sample)
		sc.TargetCI = *ci
		if need := int64(sc.MinIntervals) * sc.Period; need > p.MeasureInstr {
			fmt.Fprintf(os.Stderr,
				"-sample %d needs %d measured instructions per core for %d intervals; this run measures %d (use -sample <= %d)\n",
				*sample, need, sc.MinIntervals, p.MeasureInstr, p.MeasureInstr/int64(sc.MinIntervals))
			os.Exit(2)
		}
		p.Sampling = sc
		p.SampleWorkers = *sampleWkrs
	}

	var todo []exp.Experiment
	if *experiment == "" {
		todo = exp.All()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			e, ok := exp.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	workers := p.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	session := exp.NewSession(p)
	var man *metrics.Manifest
	if *metricsOut != "" {
		man = metrics.NewManifest("accordbench", manifestConfig(p, *experiment), p.Seed)
	}
	total := time.Now()
	// Worker count and timings go to stderr so stdout stays byte-identical
	// across -parallel settings (diffable against a sequential run).
	fmt.Fprintf(os.Stderr, "accordbench: %d simulation workers\n", workers)
	fmt.Printf("# ACCORD reproduction — scale 1/%d, %d cores, seed %d\n\n",
		p.Scale, p.Cores, p.Seed)
	for _, e := range todo {
		start := time.Now()
		fmt.Printf("## %s (%s): %s\n\n", e.ID, e.PaperRef, e.Title)
		for _, tb := range session.RunExperiment(e) {
			if *markdown {
				fmt.Println(tb.RenderMarkdown())
			} else {
				fmt.Println(tb.Render())
			}
		}
		fmt.Fprintf(os.Stderr, "accordbench: %s in %.1fs\n", e.ID, time.Since(start).Seconds())
	}
	elapsed := time.Since(total).Seconds()
	events, instr := session.TotalEvents()
	fmt.Fprintf(os.Stderr, "accordbench: total %.1fs with %d workers — %.2fM memory events/s, %.1fM retired instructions/s\n",
		elapsed, workers, float64(events)/elapsed/1e6, float64(instr)/elapsed/1e6)
	if *traceCache {
		traces, bytes, hits, misses, evicted := session.TraceCacheStats()
		fmt.Fprintf(os.Stderr, "accordbench: trace cache — %d recordings (%.1f MiB), %d replayed / %d recorded streams, %d evicted\n",
			traces, float64(bytes)/(1<<20), hits, misses, evicted)
	}
	if p.Sampling.Enabled() {
		w := session.SampleWorkTotals()
		fmt.Fprintf(os.Stderr, "accordbench: sampled work — workers=%d dispatched=%d committed=%d discarded=%d spine=%s detail=%s\n",
			w.Workers, w.Dispatched, w.Committed, w.Discarded, w.SpineTime.Round(time.Millisecond), w.DetailTime.Round(time.Millisecond))
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "accordbench: spine lattice %s — hits=%d misses=%d save=%s\n",
				*ckptDir, w.LatticeHits, w.LatticeMisses, w.SpineSaveTime.Round(time.Millisecond))
		}
		if man != nil {
			man.SampleWork = w.ManifestEntry()
		}
	}

	if *metricsOut != "" {
		ex := session.ExportMetrics(man.Finish())
		if err := ex.WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "accordbench: wrote metrics for %d runs to %s\n", len(ex.Runs), *metricsOut)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
