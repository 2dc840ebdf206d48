// Command accordsim runs a single simulation of the ACCORD system and
// prints its statistics: hit rate, way-prediction accuracy, bandwidth
// breakdown, per-core IPC, and energy.
//
// Examples:
//
//	accordsim -workload soplex -org accord -ways 2
//	accordsim -workload mix1 -org parallel -ways 8 -scale 512
//	accordsim -list
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"accord/internal/cpu"
	"accord/internal/dram"
	"accord/internal/energy"
	"accord/internal/metrics"
	"accord/internal/sim"
	"accord/internal/stats"
	"accord/internal/workloads"
)

func main() {
	var (
		workload   = flag.String("workload", "libquantum", "workload name (see -list)")
		org        = flag.String("org", "accord", "organization: direct|parallel|serial|idealized|perfect|unbiased|pws|gws|accord|mru|partialtag|ca|lru|banshee|gemini|tdram")
		ways       = flag.Int("ways", 2, "associativity for N-way organizations")
		pip        = flag.Float64("pip", 0.85, "preferred-way install probability (pws)")
		scale      = flag.Int64("scale", 256, "capacity scale divisor (1 = full 4 GB)")
		cores      = flag.Int("cores", 16, "core count")
		warmup     = flag.Int64("warmup", 4_000_000, "warmup instructions per core")
		measure    = flag.Int64("measure", 4_000_000, "measured instructions per core")
		seed       = flag.Int64("seed", 1, "simulation seed")
		baseline   = flag.Bool("baseline", false, "also run the direct-mapped baseline and report speedup")
		trace      = flag.String("trace", "", "replay a trace file (see cmd/tracegen) instead of a named workload")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON instead of a table")
		metricsOut = flag.String("metrics-out", "", "write structured metrics to this file (.csv for CSV + manifest sidecar, otherwise JSON)")
		epoch      = flag.Int64("epoch", -1, "metrics sampling epoch in retired instructions summed over cores (-1 = auto when -metrics-out is set, 0 = final snapshot only)")
		sample     = flag.Int64("sample", 0, "interval-sampling period in instructions per core (0 = exact detailed run); each period is mostly functional fast-forward with a short detailed measured window, and results carry Student-t confidence intervals")
		ci         = flag.Float64("ci", 0.05, "with -sample: stop early once the IPC estimate's relative CI half-width reaches this (0 = run every planned interval)")
		sampleWkrs = flag.Int("sample-workers", 0, "with -sample: worker goroutines running detailed windows off the functional spine (0 = GOMAXPROCS; 1 runs the same pipeline with one worker; results are identical at any setting)")
		ckptDir    = flag.String("checkpoint-dir", "", "checkpoint directory: an exact run restores its warmup/measure boundary from it, a sampled run its functionally warmed boundary 0, when a matching checkpoint exists, and populates it otherwise (results are byte-identical either way)")
		traceCache = flag.Bool("trace-cache", true, "record each workload stream once and replay it, sharing the recording with the -baseline run (ignored with -trace)")
		ckptSchema = flag.Bool("ckpt-schema", false, "print the checkpoint format ID (for cache keys) and exit")
		list       = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()

	if *ckptSchema {
		fmt.Println(sim.CheckpointFormatID())
		return
	}

	if *list {
		fmt.Println("rate-mode workloads:")
		fmt.Println("  " + strings.Join(workloads.Names(), " "))
		fmt.Println("mixes: mix1 .. mix10")
		return
	}

	cfg, err := sim.Named(*org, *ways, *pip)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *trace != "" {
		// Traces carry their own pacing; use the configured windows as-is.
		cfg.DisableAdaptiveBudgets = true
	}
	cfg.Scale = *scale
	cfg.Cores = *cores
	cfg.WarmupInstr = *warmup
	cfg.MeasureInstr = *measure
	cfg.Seed = *seed
	cfg.SpineCheckpointDir = *ckptDir
	if *sample > 0 {
		// Interval sampling owns the measured-phase layout and records a
		// per-interval metric series, so adaptive budgets and epoch
		// sampling are both ceded to it.
		sc := sim.DefaultSampling(*sample)
		sc.TargetCI = *ci
		cfg.Sampling = sc
		cfg.SampleWorkers = *sampleWkrs
		cfg.DisableAdaptiveBudgets = true
	} else {
		cfg.EpochInstr = epochInstr(*epoch, *metricsOut != "", cfg)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var wl workloads.Workload
	var err2 error
	if *trace != "" {
		wl, err2 = loadTrace(*trace, cfg.Cores)
	} else {
		wl, err2 = workloads.Get(*workload, cfg.Cores)
	}
	if err2 != nil {
		fmt.Fprintln(os.Stderr, err2)
		os.Exit(2)
	}

	// The trace cache records the workload stream on first use and
	// replays it for the -baseline run (same workload, same anchor, same
	// seeds — replay is byte-identical to regeneration).
	var traces *workloads.TraceCache
	if *traceCache && *trace == "" {
		traces = workloads.NewTraceCache(0)
		wl.Source = traces.Source(wl.Specs, cfg.AnchorLines(), cfg.Seed)
	}

	man := metrics.NewManifest("accordsim", flagConfig(), cfg.Seed)
	sys := sim.New(cfg, wl)
	res := sys.Run(wl.Name)
	w := sys.SampleWork()
	if res.Sampled == nil && w.LatticeHits > 0 {
		fmt.Fprintf(os.Stderr, "accordsim: restored warm state from %s\n", *ckptDir)
	}
	if res.Sampled != nil {
		man.SampleWork = w.ManifestEntry()
		fmt.Fprintf(os.Stderr, "accordsim: sampled workers=%d dispatched=%d committed=%d discarded=%d spine=%s detail=%s\n",
			w.Workers, w.Dispatched, w.Committed, w.Discarded, w.SpineTime.Round(time.Millisecond), w.DetailTime.Round(time.Millisecond))
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "accordsim: spine lattice %s: hits=%d misses=%d save=%s\n",
				cfg.SpineCheckpointDir, w.LatticeHits, w.LatticeMisses, w.SpineSaveTime.Round(time.Millisecond))
		}
	}
	if *metricsOut != "" {
		ex := &metrics.Export{
			Manifest: man.Finish(),
			Runs:     []metrics.Run{res.ExportRun()},
		}
		if err := ex.WriteFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	printResult(cfg, res)

	if *baseline {
		base := sim.DirectMapped()
		base.Scale, base.Cores = cfg.Scale, cfg.Cores
		base.WarmupInstr, base.MeasureInstr, base.Seed = cfg.WarmupInstr, cfg.MeasureInstr, cfg.Seed
		base.DisableAdaptiveBudgets = cfg.DisableAdaptiveBudgets
		base.Sampling = cfg.Sampling
		base.SampleWorkers = cfg.SampleWorkers
		base.SpineCheckpointDir = cfg.SpineCheckpointDir
		// When wl.Source is set, sim.New asks it for fresh streams: a
		// trace replays from event zero, and the trace cache's cursors
		// replay the recordings the main run just produced (the baseline
		// shares scale, seed, and anchor).
		bres := sim.New(base, wl).Run(wl.Name)
		fmt.Printf("\nbaseline (direct-mapped) mean IPC: %.4f\n", bres.MeanIPC())
		fmt.Printf("weighted speedup:                  %.4f\n", sim.WeightedSpeedup(res, bres))
	}
}

// epochInstr resolves the -epoch flag: an explicit non-negative value
// wins (0 disables sampling); auto mode samples ~8 epochs across the
// nominal measured window whenever metrics are being exported.
func epochInstr(flagVal int64, exporting bool, cfg sim.Config) int64 {
	if flagVal >= 0 {
		return flagVal
	}
	if !exporting {
		return 0
	}
	e := cfg.MeasureInstr * int64(cfg.Cores) / 8
	if e <= 0 {
		e = 1
	}
	return e
}

// flagConfig snapshots the effective flag values for the run manifest.
func flagConfig() map[string]string {
	out := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) {
		out[f.Name] = f.Value.String()
	})
	return out
}

// loadTrace reads a tracegen-format file and replays it on every core.
// The workload is named PATH@DIGEST, DIGEST being the first 16 hex digits
// of a SHA-256 over the file: checkpoints are keyed by workload name, so
// a trace rewritten at the same path with other events can never restore
// the old trace's state.
func loadTrace(path string, cores int) (workloads.Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return workloads.Workload{}, err
	}
	st, err := workloads.ReadTrace(bytes.NewReader(data))
	if err != nil {
		return workloads.Workload{}, err
	}
	sum := sha256.Sum256(data)
	return workloads.TraceWorkload(fmt.Sprintf("%s@%x", path, sum[:8]), st.Events, cores)
}

// printResult renders the run summary from the metrics registry snapshot
// — the same values -metrics-out exports — so the table and the
// machine-readable artifact cannot diverge. Undefined gauges fall back
// to the legacy 0 rendering (the stats package's Pct/Ratio convention),
// keeping output byte-identical to earlier releases.
func printResult(cfg sim.Config, res sim.Result) {
	fmt.Printf("config:   %s  (scale 1/%d, %.1f MB model cache)\n",
		res.Config, cfg.Scale, float64(cfg.L4Capacity())/(1<<20))
	fmt.Printf("workload: %s\n\n", res.Workload)

	snap := res.Metrics.Final
	t := stats.NewTable("", "metric", "value")
	t.AddRowf("L4 reads", snap.Counter("l4.reads"))
	t.AddRowf("L4 hit rate", fmt.Sprintf("%.2f%%", gaugeOr(snap, "l4.hit_rate_pct", 0)))
	t.AddRowf("way-pred accuracy", fmt.Sprintf("%.2f%%", gaugeOr(snap, "l4.prediction_accuracy_pct", 0)))
	t.AddRowf("probes per read", fmt.Sprintf("%.3f", gaugeOr(snap, "l4.probes_per_read", 0)))
	t.AddRowf("avg hit latency (cyc)", fmt.Sprintf("%.1f", histMean(snap, "l4.hit_latency")))
	t.AddRowf("avg miss latency (cyc)", fmt.Sprintf("%.1f", histMean(snap, "l4.miss_latency")))
	t.AddRowf("L4 writebacks", snap.Counter("l4.writebacks"))
	t.AddRowf("NVM reads / writes", fmt.Sprintf("%d / %d",
		snap.Counter("l4.nvm_reads"), snap.Counter("l4.nvm_writes")))
	t.AddRowf("mean IPC", fmt.Sprintf("%.4f", gaugeOr(snap, "cpu.mean_ipc", res.MeanIPC())))
	fmt.Print(t.Render())

	if ss := res.Sampled; ss != nil {
		state := "budget exhausted"
		if ss.Converged {
			state = "converged early"
		}
		fmt.Printf("\nsampled: %d/%d intervals (%s), %g%% confidence\n",
			ss.Intervals, ss.Planned, state, 100*ss.Confidence)
		printCI("  IPC", ss.IPC)
		printCI("  hit rate", ss.HitRate)
		printCI("  MPKI", ss.MPKI)
	}

	b := energy.Compute(dram.HBM(), res.HBM, dram.PCM(), res.PCM, res.Cycles, cpu.ClockGHz)
	fmt.Printf("\nenergy: %.4f J total (%.2f W avg, EDP %.5f J·s)\n", b.Total(), b.Power(), b.EDP())
}

// printCI renders one sampled estimate, following the undefined-not-zero
// convention: no observations prints n/a, a single observation prints the
// mean without a half-width.
func printCI(label string, m sim.MetricCI) {
	switch {
	case !m.Valid():
		fmt.Printf("%-10s n/a (no intervals observed it)\n", label)
	case !m.OK:
		fmt.Printf("%-10s %.4f (single interval, no CI)\n", label, m.Mean)
	default:
		fmt.Printf("%-10s %.4f ± %.4f\n", label, m.Mean, m.Half)
	}
}

// gaugeOr reads a gauge, substituting fallback when it is undefined.
func gaugeOr(s metrics.Snapshot, name string, fallback float64) float64 {
	if v, ok := s.Gauge(name); ok {
		return v
	}
	return fallback
}

// histMean returns a histogram's mean, 0 when it holds no samples
// (matching dramcache.LatencySum.Mean).
func histMean(s metrics.Snapshot, name string) float64 {
	v, ok := s.Get(name)
	if !ok || v.Count == 0 {
		return 0
	}
	return v.Sum / float64(v.Count)
}
