package accord

import (
	"fmt"
	"runtime"
	"testing"

	"accord/internal/core"
	"accord/internal/cpu"
	"accord/internal/dram"
	"accord/internal/dramcache"
	"accord/internal/exp"
	"accord/internal/memtypes"
	"accord/internal/sim"
	"accord/internal/workloads"
)

// benchParams is the reduced scale used by the per-artifact benchmarks: a
// 512 KB model cache keeps one full experiment in the hundreds of
// milliseconds to seconds range. cmd/accordbench runs the same experiments
// at full quality.
func benchParams() exp.Params {
	// TraceCache mirrors the production default (exp.DefaultParams): each
	// iteration's session records every workload stream once and replays
	// it for the remaining design points.
	return exp.Params{Scale: 8192, Cores: 4, WarmupInstr: 100_000, MeasureInstr: 100_000, Seed: 1, TraceCache: true}
}

// benchExperiment runs one paper artifact end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(benchParams())
		tables := e.Run(s)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation.

func BenchmarkFig1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkTab1(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkTab2(b *testing.B)  { benchExperiment(b, "tab2") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkTab5(b *testing.B)  { benchExperiment(b, "tab5") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkTab6(b *testing.B)  { benchExperiment(b, "tab6") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkTab7(b *testing.B)  { benchExperiment(b, "tab7") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkTab8(b *testing.B)  { benchExperiment(b, "tab8") }
func BenchmarkTab9(b *testing.B)  { benchExperiment(b, "tab9") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkTab10(b *testing.B) { benchExperiment(b, "tab10") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkLRU(b *testing.B)   { benchExperiment(b, "lru") }

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblGWSTables(b *testing.B) { benchExperiment(b, "ablgws") }
func BenchmarkAblSWSK(b *testing.B)      { benchExperiment(b, "ablsws") }
func BenchmarkAblHierarchy(b *testing.B) { benchExperiment(b, "ablhier") }

// Substrate microbenchmarks.

func BenchmarkDRAMAccess(b *testing.B) {
	d := dram.New(dram.HBM(), cpu.ClockGHz)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loc := dram.Loc{Channel: i & 7, Bank: (i >> 3) & 15, Row: uint64(i >> 7)}
		d.Access(int64(i), loc, memtypes.Read, memtypes.TagUnitSize)
	}
}

func BenchmarkACCORDPredict(b *testing.B) {
	p := core.NewACCORD(core.DefaultACCORD(core.Geometry{Sets: 1 << 16, Ways: 2}, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set := uint64(i) & 0xFFFF
		tag := uint64(i) >> 16
		p.PredictWay(set, tag, memtypes.RegionID(i>>6))
	}
}

func BenchmarkACCORDInstall(b *testing.B) {
	p := core.NewACCORD(core.DefaultACCORD(core.Geometry{Sets: 1 << 16, Ways: 8}, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set := uint64(i) & 0xFFFF
		tag := uint64(i) >> 16
		w := p.InstallWay(set, tag, memtypes.RegionID(i>>6))
		p.ObserveInstall(set, tag, memtypes.RegionID(i>>6), w)
	}
}

func BenchmarkDRAMCacheRead(b *testing.B) {
	hbm := dram.New(dram.HBM(), cpu.ClockGHz)
	pcm := dram.New(dram.PCM(), cpu.ClockGHz)
	pol := core.NewACCORD(core.DefaultACCORD(core.Geometry{Sets: 1 << 14, Ways: 2}, 1))
	c := dramcache.New(dramcache.Config{
		CapacityBytes: (1 << 14) * 2 * memtypes.LineSize,
		Ways:          2,
		Lookup:        dramcache.LookupPredicted,
	}, pol, hbm, pcm)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AccessRead(int64(i), memtypes.LineAddr(i%(1<<15)))
	}
}

func BenchmarkWorkloadStream(b *testing.B) {
	wl := workloads.MustGet("soplex", 16)
	st := workloads.NewStream(wl.Specs[0], 1<<18, 16, 1)
	var ev workloads.Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Next(&ev)
	}
}

// BenchmarkSessionParallel measures one full experiment through the
// session scheduler at parallelism 1 versus GOMAXPROCS. On a multi-core
// host the second sub-benchmark should approach a core-count speedup;
// the rendered tables are byte-identical either way.
func BenchmarkSessionParallel(b *testing.B) {
	e, ok := exp.Find("tab6")
	if !ok {
		b.Fatal("unknown experiment tab6")
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := benchParams()
				p.Parallelism = workers
				s := exp.NewSession(p)
				if tables := s.RunExperiment(e); len(tables) == 0 {
					b.Fatal("tab6 produced no tables")
				}
			}
		})
	}
}

// BenchmarkTraceSession measures a multi-configuration sweep — four
// architectures over three shared workloads — through one session with
// the trace cache off (cold: every run regenerates its streams) and on
// (shared: the first run per workload records, eleven replays follow).
// The shared variant is the trace cache's headline wall-clock win.
func BenchmarkTraceSession(b *testing.B) {
	configs := []sim.Config{sim.DirectMapped(), sim.ACCORD(2), sim.MRU(2), sim.CACache()}
	names := []string{"libquantum", "soplex", "mcf"}
	for _, variant := range []struct {
		name  string
		trace bool
	}{{"cold", false}, {"shared", true}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := benchParams()
				p.TraceCache = variant.trace
				s := exp.NewSession(p)
				for _, cfg := range configs {
					for _, wl := range names {
						if res := s.Run(cfg, wl); res.Instructions == 0 {
							b.Fatalf("%s/%s retired no instructions", cfg.Name, wl)
						}
					}
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures end-to-end simulated instructions
// per wall second on the default ACCORD configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := sim.ACCORD(2)
	cfg.Scale = 4096
	cfg.Cores = 4
	cfg.WarmupInstr = 100_000
	cfg.MeasureInstr = 200_000
	wl := workloads.MustGet("libquantum", cfg.Cores)
	b.ReportAllocs()
	var instr int64
	for i := 0; i < b.N; i++ {
		res := sim.New(cfg, wl).Run("libquantum")
		instr += res.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}
