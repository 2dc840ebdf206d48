// Package accord is a from-scratch reproduction of ACCORD — "Enabling
// Associativity for Gigascale DRAM Caches by Coordinating Way-Install and
// Way-Prediction" (ISCA 2018) — together with the full memory-system
// simulator its evaluation runs on: a 16-core system with an alloy-style
// stacked-DRAM cache in front of PCM-like non-volatile main memory.
//
// The package is a facade over the implementation packages:
//
//   - Way policies (the paper's contribution): probabilistic (PWS), ganged
//     (GWS), and skewed (SWS) way-steering, plus the conventional
//     random/MRU/partial-tag predictors and the column-associative cache
//     it is compared against.
//   - System configurations for every design point in the paper's figures
//     (DirectMapped, Parallel, Serial, Idealized, PerfectWP, PWS, GWS,
//     ACCORD, MRU, PartialTag, CACache, LRU2Way, Banshee, Gemini, TDRAM).
//   - Workloads: synthetic SPEC/GAP/HPC-calibrated streams (see
//     internal/workloads) resolved by name, including mixes.
//   - Experiments: one runnable artifact per table/figure of the paper.
//
// Quick start:
//
//	cfg := accord.ACCORD(2)             // the paper's 2-way design
//	res := accord.Run(cfg, "soplex")    // simulate one workload
//	base := accord.Run(accord.DirectMapped(), "soplex")
//	fmt.Println(accord.WeightedSpeedup(res, base))
package accord

import (
	"accord/internal/core"
	"accord/internal/cpu"
	"accord/internal/dram"
	"accord/internal/dramcache"
	"accord/internal/energy"
	"accord/internal/exp"
	"accord/internal/sim"
	"accord/internal/stats"
	"accord/internal/workloads"
)

// Core simulation types.
type (
	// Config describes one system configuration (see the catalog below).
	Config = sim.Config
	// Result captures one simulation run: per-core IPCs, cache stats, and
	// device traffic.
	Result = sim.Result
	// PolicyFactory builds a way policy for a cache geometry.
	PolicyFactory = sim.PolicyFactory
	// SamplingConfig enables SMARTS-style interval sampling on a Config.
	SamplingConfig = sim.SamplingConfig
	// SampleSummary reports a sampled run's estimates with confidence
	// intervals (Result.Sampled).
	SampleSummary = sim.SampleSummary
	// MetricCI is one sampled estimate: mean ± Student-t half-width.
	MetricCI = sim.MetricCI
	// IntervalObs is one committed interval of a sampled run
	// (SampleSummary.Series).
	IntervalObs = sim.IntervalObs
	// System is a constructed simulation (NewSystem) for callers that
	// need more than Run: snapshots, sampled-run diagnostics.
	System = sim.System
	// SampleWork reports how a sampled run's work was executed —
	// worker count, speculation accounting, spine/worker time split
	// (System.SampleWork; diagnostic only, never part of Result).
	SampleWork = sim.SampleWork
	// TraceCache records each workload stream once and replays it
	// byte-identically across runs that share it.
	TraceCache = workloads.TraceCache

	// Policy couples way-install and way-prediction (the ACCORD framework).
	Policy = core.Policy
	// Geometry is a cache shape (sets x ways).
	Geometry = core.Geometry
	// ACCORDConfig selects which way-steering mechanisms a policy applies.
	ACCORDConfig = core.ACCORDConfig

	// DeviceConfig parameterizes a DRAM-like device (HBM cache or PCM).
	DeviceConfig = dram.Config
	// Lookup selects how the DRAM cache locates a line among its ways.
	Lookup = dramcache.Lookup

	// EnergyBreakdown is the off-chip energy of one run.
	EnergyBreakdown = energy.Breakdown

	// Workload assigns one generator spec per core.
	Workload = workloads.Workload
	// WorkloadSpec parameterizes one core's synthetic stream.
	WorkloadSpec = workloads.Spec

	// Experiment is one reproducible paper table/figure.
	Experiment = exp.Experiment
	// ExperimentParams controls experiment scale and duration.
	ExperimentParams = exp.Params
	// Table is rendered experiment output.
	Table = stats.Table
)

// The fixed Table III machine every Config runs on, beside the HBM and
// PCMConfig devices: the core clock, and the main-memory capacity before
// Config.Scale divides it.
const (
	CPUClockGHz     = cpu.ClockGHz
	NVMCapacityFull = sim.NVMCapacityFull
)

// Lookup strategies (Section II-C).
const (
	LookupPredicted = dramcache.LookupPredicted
	LookupParallel  = dramcache.LookupParallel
	LookupSerial    = dramcache.LookupSerial
	LookupPerfect   = dramcache.LookupPerfect
	LookupIdealized = dramcache.LookupIdealized
)

// Configuration catalog — the design points of the paper's evaluation.
var (
	// DefaultConfig is the Table III baseline system.
	DefaultConfig = sim.Default
	// DirectMapped is the KNL-style baseline DRAM cache.
	DirectMapped = sim.DirectMapped
	// Parallel streams all N ways on every access (Figure 3a).
	Parallel = sim.Parallel
	// Serial probes ways one at a time (Figure 3b).
	Serial = sim.Serial
	// Idealized is the Figure 1(c) oracle (N-way hit rate at 1-way cost).
	Idealized = sim.Idealized
	// PerfectWP is perfect way prediction (Figure 10).
	PerfectWP = sim.PerfectWP
	// PWS is probabilistic way-steering at a given PIP (Section IV-B).
	PWS = sim.PWS
	// GWS is ganged way-steering alone (Section IV-C).
	GWS = sim.GWS
	// ACCORD is the full design: PWS+GWS at 2 ways, +SWS(N,2) above.
	ACCORD = sim.ACCORD
	// MRU is the per-set MRU predictor baseline (Table II).
	MRU = sim.MRU
	// PartialTag is the partial-tag predictor baseline (Table II).
	PartialTag = sim.PartialTag
	// CACache is the column-associative (hash-rehash) baseline (Section VII).
	CACache = sim.CACache
	// LRU2Way reproduces footnote 2's LRU replacement bandwidth tax.
	LRU2Way = sim.LRU2Way
	// Banshee is the page-granularity frequency-tracked organization
	// (Banshee, MICRO 2017) behind the L4 backend registry.
	Banshee = sim.Banshee
	// Gemini is the hybrid set/way-mapped organization (zero-SRAM way
	// prediction by construction).
	Gemini = sim.Gemini
	// TDRAM is the tag-enhanced DRAM organization (single-access hits,
	// early miss detection).
	TDRAM = sim.TDRAM
	// BackendNames lists the registered L4 organization backends.
	BackendNames = dramcache.BackendNames
	// NamedConfig resolves an organization by CLI-style name.
	NamedConfig = sim.Named
	// DefaultSampling is a reasonable interval-sampling layout for a
	// given period (5% detailed, 2.5% detailed-unmeasured re-warm).
	DefaultSampling = sim.DefaultSampling

	// HBM and PCMConfig are the Table III device parameter sets.
	HBM       = dram.HBM
	PCMConfig = dram.PCM

	// NewACCORDPolicy builds a standalone ACCORD policy instance.
	NewACCORDPolicy = core.NewACCORD
	// DefaultACCORDConfig is the paper's configuration for a geometry.
	DefaultACCORDConfig = core.DefaultACCORD
	// NewRandPolicy, NewMRUPolicy, and NewPartialTagPolicy build the
	// conventional way predictors the paper compares against (Table II).
	NewRandPolicy       = core.NewRand
	NewMRUPolicy        = core.NewMRU
	NewPartialTagPolicy = core.NewPartialTag

	// WeightedSpeedup is the paper's performance metric.
	WeightedSpeedup = sim.WeightedSpeedup

	// ComputeEnergy derives the Figure 15 energy breakdown of a run.
	ComputeEnergy = energy.Compute

	// WorkloadNames lists the rate-mode workloads; CoreSuite and AllSuite
	// are the paper's 21- and 46-workload suites.
	WorkloadNames = workloads.Names
	CoreSuite     = workloads.CoreSuite
	AllSuite      = workloads.AllSuite
	GetWorkload   = workloads.Get
	// NewTraceCache builds a shared stream recording (byteBudget 0 =
	// default); NewSystem constructs a System from a Config and Workload.
	NewTraceCache = workloads.NewTraceCache
	NewSystem     = sim.New

	// Experiments lists every paper artifact; FindExperiment resolves one
	// by ID (e.g. "fig10"); NewExperimentSession memoizes runs across
	// experiments.
	Experiments          = exp.All
	FindExperiment       = exp.Find
	NewExperimentSession = exp.NewSession
	DefaultParams        = exp.DefaultParams
	QuickParams          = exp.QuickParams
)

// Run simulates cfg on the named workload and returns the result. Unknown
// workload names return an error through RunE; Run panics on them, which
// suits example and test code.
func Run(cfg Config, workload string) Result {
	res, err := RunE(cfg, workload)
	if err != nil {
		panic(err)
	}
	return res
}

// RunE simulates cfg on the named workload.
func RunE(cfg Config, workload string) (Result, error) {
	wl, err := workloads.Get(workload, cfg.Cores)
	if err != nil {
		return Result{}, err
	}
	return sim.New(cfg, wl).Run(workload), nil
}
