package workloads

import (
	"fmt"
	"sort"
)

// Workload is a named assignment of one Spec per core. In rate mode all
// cores run the same spec (with per-core seeds and address spaces); in mix
// mode each core runs a different spec.
type Workload struct {
	Name  string
	Suite string // "spec", "gap", "hpc", "mix", or "trace"
	Specs []Spec // one per core
	// Source, when non-nil, overrides generator construction with a
	// per-core stream factory. It must return a fresh stream positioned at
	// event zero on every call: system assembly invokes it once per core,
	// and a failed warm-state restore rebuilds the system — and its
	// streams — from scratch. The trace cache and trace replay plug in
	// here (see TraceCache.Source and TraceWorkload).
	Source func(core int) Stream
}

// preset describes a rate-mode workload before expansion to cores.
type preset struct {
	suite string
	spec  Spec
}

// The preset table. Component triples are (weight, footprint ratio
// relative to the DRAM cache, stride): stride 1 is a sequential scan
// (high page-level spatial locality), larger strides are cyclic
// permutation walks (reuse without spatial locality), stride 0 is uniform
// random. Ratios near and below 1 create the set-conflict pressure that
// makes a workload associativity-sensitive; large ratios create
// capacity/compulsory misses that no associativity can fix. Values are
// chosen to reproduce Table IV: each workload's L3 MPKI, footprint class,
// and 8-way speedup potential.
var presets = map[string]preset{
	// ---- SPEC 2006, the eleven of Table IV ----
	"soplex": {"spec", Spec{MPKI: 26.7, WriteFrac: 0.25, DepFrac: 0.35, Components: []Component{
		{Weight: 0.47, SizeRatio: 0.06, StrideLines: 1},
		{Weight: 0.50, SizeRatio: 0.55, StrideLines: 1},
		{Weight: 0.03, SizeRatio: 2.5, StrideLines: 1},
	}}},
	"leslie3d": {"spec", Spec{MPKI: 17.5, WriteFrac: 0.28, DepFrac: 0.30, Components: []Component{
		{Weight: 0.52, SizeRatio: 0.05, StrideLines: 1},
		{Weight: 0.45, SizeRatio: 0.45, StrideLines: 1},
		{Weight: 0.03, SizeRatio: 2.0, StrideLines: 1},
	}}},
	"libquantum": {"spec", Spec{MPKI: 25.4, WriteFrac: 0.30, DepFrac: 0.15, Components: []Component{
		{Weight: 0.42, SizeRatio: 0.04, StrideLines: 1},
		{Weight: 0.55, SizeRatio: 0.30, StrideLines: 1},
		{Weight: 0.03, SizeRatio: 2.0, StrideLines: 1},
	}}},
	"gcc": {"spec", Spec{MPKI: 16.9, WriteFrac: 0.30, DepFrac: 0.40, Components: []Component{
		{Weight: 0.57, SizeRatio: 0.04, StrideLines: 1},
		{Weight: 0.40, SizeRatio: 0.45, StrideLines: 1},
		{Weight: 0.03, SizeRatio: 1.5, StrideLines: 1},
	}}},
	"zeusmp": {"spec", Spec{MPKI: 4.9, WriteFrac: 0.30, DepFrac: 0.30, Components: []Component{
		{Weight: 0.62, SizeRatio: 0.05, StrideLines: 1},
		{Weight: 0.35, SizeRatio: 0.35, StrideLines: 1},
		{Weight: 0.03, SizeRatio: 1.5, StrideLines: 1},
	}}},
	"wrf": {"spec", Spec{MPKI: 6.9, WriteFrac: 0.30, DepFrac: 0.30, Components: []Component{
		{Weight: 0.57, SizeRatio: 0.05, StrideLines: 1},
		{Weight: 0.40, SizeRatio: 0.50, StrideLines: 1},
		{Weight: 0.03, SizeRatio: 2.0, StrideLines: 1},
	}}},
	"omnetpp": {"spec", Spec{MPKI: 20.6, WriteFrac: 0.30, DepFrac: 0.55, Components: []Component{
		{Weight: 0.52, SizeRatio: 0.04, StrideLines: 1},
		{Weight: 0.45, SizeRatio: 0.40, StrideLines: 17},
		{Weight: 0.03, SizeRatio: 1.2, StrideLines: 9},
	}}},
	"xalancbmk": {"spec", Spec{MPKI: 2.1, WriteFrac: 0.28, DepFrac: 0.50, Components: []Component{
		{Weight: 0.57, SizeRatio: 0.05, StrideLines: 1},
		{Weight: 0.40, SizeRatio: 0.40, StrideLines: 9},
		{Weight: 0.03, SizeRatio: 1.2, StrideLines: 0},
	}}},
	"mcf": {"spec", Spec{MPKI: 56.8, WriteFrac: 0.20, DepFrac: 0.75, Components: []Component{
		{Weight: 0.32, SizeRatio: 0.05, StrideLines: 0},
		{Weight: 0.35, SizeRatio: 0.75, StrideLines: 13},
		{Weight: 0.33, SizeRatio: 2.2, StrideLines: 0},
	}}},
	"sphinx3": {"spec", Spec{MPKI: 12.2, WriteFrac: 0.15, DepFrac: 0.35, Components: []Component{
		{Weight: 0.97, SizeRatio: 0.06, StrideLines: 1},
		{Weight: 0.03, SizeRatio: 0.12, StrideLines: 1},
	}}},
	"milc": {"spec", Spec{MPKI: 25.7, WriteFrac: 0.25, DepFrac: 0.20, Components: []Component{
		{Weight: 0.59, SizeRatio: 0.04, StrideLines: 1},
		{Weight: 0.33, SizeRatio: 3.0, StrideLines: 1},
		{Weight: 0.08, SizeRatio: 1.2, StrideLines: 0},
	}}},

	// ---- SPEC 2006, the remaining eighteen (memory-light or
	// associativity-insensitive; Section VI-A's "all 46") ----
	"bwaves":    {"spec", specStreamy(18, 4.0)},
	"lbm":       {"spec", specStreamy(30, 5.0)},
	"gemsfdtd":  {"spec", specStreamy(15, 3.5)},
	"cactusadm": {"spec", specMild(6.0, 0.35)},
	"astar":     {"spec", specPointer(6.0, 1.2)},
	"bzip2":     {"spec", specMild(4.0, 0.30)},
	"hmmer":     {"spec", specHot(2.8)},
	"dealii":    {"spec", specMild(2.5, 0.25)},
	"h264ref":   {"spec", specHot(2.2)},
	"calculix":  {"spec", specHot(1.8)},
	"gromacs":   {"spec", specHot(1.5)},
	"perlbench": {"spec", specHot(1.5)},
	"namd":      {"spec", specHot(1.2)},
	"gobmk":     {"spec", specHot(1.2)},
	"sjeng":     {"spec", specHot(1.0)},
	"tonto":     {"spec", specHot(1.0)},
	"gamess":    {"spec", specHot(0.4)},
	"povray":    {"spec", specHot(0.3)},

	// ---- GAP graph analytics (twitter and web sk-2005 inputs) ----
	"pr_twitter": {"gap", specGraph(30, 2.5, 0.70, 7)},
	"cc_twitter": {"gap", specGraph(26, 2.2, 0.65, 5)},
	"bc_twitter": {"gap", specGraph(22, 2.0, 0.60, 11)},
	"pr_web":     {"gap", specGraphWeb(18, 1.8, 0.55)},
	"cc_web":     {"gap", specGraphWeb(15, 1.8, 0.50)},
	"bc_web":     {"gap", specGraphWeb(13, 1.6, 0.45)},

	// ---- HPC ----
	"nekbone": {"hpc", Spec{MPKI: 3.0, WriteFrac: 0.25, DepFrac: 0.20, Components: []Component{
		{Weight: 0.92, SizeRatio: 0.04, StrideLines: 1},
		{Weight: 0.08, SizeRatio: 0.10, StrideLines: 1},
	}}},
}

// specStreamy: bandwidth-bound sequential scans over a footprint far above
// cache capacity; high spatial locality, insensitive to associativity.
func specStreamy(mpki, ratio float64) Spec {
	return Spec{MPKI: mpki, WriteFrac: 0.25, DepFrac: 0.15, Components: []Component{
		{Weight: 0.45, SizeRatio: 0.04, StrideLines: 1},
		{Weight: 0.52, SizeRatio: ratio, StrideLines: 1},
		{Weight: 0.03, SizeRatio: 1.2, StrideLines: 0},
	}}
}

// specMild: moderate reuse with light conflict pressure.
func specMild(mpki, wsRatio float64) Spec {
	return Spec{MPKI: mpki, WriteFrac: 0.30, DepFrac: 0.35, Components: []Component{
		{Weight: 0.57, SizeRatio: 0.05, StrideLines: 1},
		{Weight: 0.40, SizeRatio: wsRatio, StrideLines: 1},
		{Weight: 0.03, SizeRatio: 1.5, StrideLines: 1},
	}}
}

// specHot: cache-friendly workloads whose misses are mostly compulsory.
func specHot(mpki float64) Spec {
	return Spec{MPKI: mpki, WriteFrac: 0.30, DepFrac: 0.40, Components: []Component{
		{Weight: 0.92, SizeRatio: 0.06, StrideLines: 1},
		{Weight: 0.08, SizeRatio: 1.2, StrideLines: 1},
	}}
}

// specPointer: dependent-load-heavy with modest conflict sensitivity.
func specPointer(mpki, ratio float64) Spec {
	return Spec{MPKI: mpki, WriteFrac: 0.20, DepFrac: 0.70, Components: []Component{
		{Weight: 0.42, SizeRatio: 0.05, StrideLines: 0},
		{Weight: 0.38, SizeRatio: 0.70, StrideLines: 13},
		{Weight: 0.20, SizeRatio: ratio, StrideLines: 0},
	}}
}

// specGraph: twitter-scale graph analytics — huge footprint, sparse
// accesses, little page locality (hard for GWS, per Figure 7).
func specGraph(mpki, bigRatio, wsRatio float64, stride uint64) Spec {
	return Spec{MPKI: mpki, WriteFrac: 0.10, DepFrac: 0.65, Components: []Component{
		{Weight: 0.35, SizeRatio: 0.04, StrideLines: 0},
		{Weight: 0.30, SizeRatio: wsRatio, StrideLines: stride},
		{Weight: 0.35, SizeRatio: bigRatio, StrideLines: 0},
	}}
}

// specGraphWeb: web graphs have more community structure, hence somewhat
// better locality than the twitter graphs.
func specGraphWeb(mpki, bigRatio, wsRatio float64) Spec {
	return Spec{MPKI: mpki, WriteFrac: 0.10, DepFrac: 0.60, Components: []Component{
		{Weight: 0.40, SizeRatio: 0.04, StrideLines: 1},
		{Weight: 0.35, SizeRatio: wsRatio, StrideLines: 3},
		{Weight: 0.25, SizeRatio: bigRatio, StrideLines: 0},
	}}
}

// coreSuite is the 17 rate-mode workloads of the paper's main studies
// (Table IV order: low to high sensitivity in the figures).
var coreSuite = []string{
	"milc", "sphinx3", "nekbone", "cc_web", "pr_web", "mcf", "xalancbmk",
	"bc_twitter", "pr_twitter", "cc_twitter", "omnetpp", "wrf", "zeusmp",
	"gcc", "libquantum", "leslie3d", "soplex",
}

// mixPool is the set of workloads with at least 2 MPKI from which mixes
// are drawn (Section III-B).
var mixPool = []string{
	"soplex", "leslie3d", "libquantum", "gcc", "zeusmp", "wrf", "omnetpp",
	"xalancbmk", "mcf", "sphinx3", "milc", "bwaves", "lbm", "gemsfdtd",
	"cactusadm", "astar", "bzip2", "hmmer",
}

// Names returns the rate-mode preset names, sorted.
func Names() []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CoreSuite returns the names of the paper's 21-workload main suite:
// the 17 rate-mode workloads of Table IV plus mixes mix1..mix4.
func CoreSuite() []string {
	out := append([]string{}, coreSuite...)
	for i := 1; i <= 4; i++ {
		out = append(out, fmt.Sprintf("mix%d", i))
	}
	return out
}

// AllSuite returns all 46 workloads of Section VI-A: 29 SPEC, 6 GAP,
// 1 HPC, and 10 mixes.
func AllSuite() []string {
	var out []string
	for _, n := range Names() {
		out = append(out, n)
	}
	for i := 1; i <= 10; i++ {
		out = append(out, fmt.Sprintf("mix%d", i))
	}
	return out
}

// Get resolves a workload by name ("soplex", "mix3", ...) for a system
// with the given core count.
func Get(name string, cores int) (Workload, error) {
	if p, ok := presets[name]; ok {
		w := Workload{Name: name, Suite: p.suite}
		spec := p.spec
		spec.Name = name
		for i := 0; i < cores; i++ {
			w.Specs = append(w.Specs, spec)
		}
		return w, nil
	}
	var k int
	if _, err := fmt.Sscanf(name, "mix%d", &k); err == nil && k >= 1 && k <= 10 {
		return Mix(k, cores), nil
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Mix builds the k-th mixed workload: cores different specs drawn
// deterministically from the >= 2 MPKI pool.
func Mix(k, cores int) Workload {
	w := Workload{Name: fmt.Sprintf("mix%d", k), Suite: "mix"}
	for i := 0; i < cores; i++ {
		name := mixPool[(k*7+i*3)%len(mixPool)]
		spec := presets[name].spec
		spec.Name = name
		w.Specs = append(w.Specs, spec)
	}
	return w
}

// MustGet is Get that panics on unknown names; for tests and examples.
func MustGet(name string, cores int) Workload {
	w, err := Get(name, cores)
	if err != nil {
		panic(err)
	}
	return w
}
