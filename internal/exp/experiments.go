package exp

import (
	"fmt"
	"math"

	"accord/internal/core"
	"accord/internal/cpu"
	"accord/internal/dram"
	"accord/internal/dramcache"
	"accord/internal/energy"
	"accord/internal/sim"
	"accord/internal/stats"
	"accord/internal/workloads"
)

// suite returns the paper's 21-workload main suite.
func suite() []string { return workloads.CoreSuite() }

// speedupFigure builds a per-workload speedup table (one column per
// configuration) with a closing geometric-mean row — the shape of the
// paper's speedup figures.
func speedupFigure(s *Session, title string, cfgs []sim.Config, names []string) *stats.Table {
	header := []string{"workload"}
	for _, c := range cfgs {
		header = append(header, c.Name)
	}
	last := cfgs[len(cfgs)-1]
	header = append(header, last.Name+" bar")
	t := stats.NewTable(title, header...)
	geoms := make([]float64, len(cfgs))
	for ci, cfg := range cfgs {
		_, geoms[ci] = s.SuiteSpeedups(cfg, names)
	}
	// Scale bars to the largest speedup of the charted configuration.
	barScale := 0.0
	for _, wl := range names {
		if ws := s.Speedup(last, wl); ws > barScale {
			barScale = ws
		}
	}
	for _, wl := range names {
		row := []string{wl}
		for _, cfg := range cfgs {
			row = append(row, spd(s.Speedup(cfg, wl)))
		}
		row = append(row, stats.Bar(s.Speedup(last, wl), barScale, 24))
		t.AddRow(row...)
	}
	grow := []string{"GMEAN"}
	for _, g := range geoms {
		grow = append(grow, spd(g))
	}
	grow = append(grow, stats.Bar(geoms[len(geoms)-1], barScale, 24))
	t.AddRow(grow...)
	return t
}

// ameanHitRate averages the demand hit rate of cfg across a suite
// (the paper reports Amean hit rates).
func (s *Session) ameanHitRate(cfg sim.Config, names []string) float64 {
	vals := make([]float64, 0, len(names))
	for _, wl := range names {
		vals = append(vals, s.Run(cfg, wl).HitRate())
	}
	return stats.Amean(vals)
}

// accuracy is r's way-prediction accuracy, NaN (rendered n/a by pct)
// when r made no prediction: an undefined ratio, not 0%.
func accuracy(r sim.Result) float64 {
	return stats.NaNIfUndefined(stats.RatioOK(float64(r.L4.Correct), float64(r.L4.Predictions)))
}

// definedAmean averages the defined (non-NaN) values of xs, NaN when
// there are none.
func definedAmean(xs []float64) float64 {
	var defined []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			defined = append(defined, x)
		}
	}
	return stats.NaNIfUndefined(stats.Amean(defined), len(defined) > 0)
}

// ameanAccuracy averages way-prediction accuracy across a suite, over
// the runs whose accuracy is defined.
func (s *Session) ameanAccuracy(cfg sim.Config, names []string) float64 {
	vals := make([]float64, 0, len(names))
	for _, wl := range names {
		vals = append(vals, accuracy(s.Run(cfg, wl)))
	}
	return definedAmean(vals)
}

func init() {
	register(Experiment{
		ID: "fig1", PaperRef: "Figure 1",
		Title: "Impact of associativity: hit-rate, parallel-lookup speedup, idealized speedup",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Figure 1: 1..8 ways (21-workload suite)",
				"ways", "hit-rate", "speedup(parallel)", "speedup(idealized)")
			base := s.ameanHitRate(sim.DirectMapped(), suite())
			t.AddRow("1", pct(base), "1.000", "1.000")
			for _, ways := range []int{2, 4, 8} {
				hit := s.ameanHitRate(sim.Idealized(ways), suite())
				_, par := s.SuiteSpeedups(sim.Parallel(ways), suite())
				_, ideal := s.SuiteSpeedups(sim.Idealized(ways), suite())
				t.AddRow(fmt.Sprint(ways), pct(hit), spd(par), spd(ideal))
			}
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "tab2", PaperRef: "Table II",
		Title: "Accuracy and storage of conventional way predictors",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Table II: way-predictor accuracy (21-workload suite) and 4GB-cache storage",
				"predictor", "storage@4GB", "2-way", "4-way", "8-way")
			type pred struct {
				name    string
				cfg     func(int) sim.Config
				storage func(int) int64
			}
			fullGeom := func(ways int) core.Geometry {
				return core.Geometry{Sets: uint64(4<<30) / uint64(64*ways), Ways: ways}
			}
			preds := []pred{
				{"rand", func(w int) sim.Config { return sim.Unbiased(w, dramcache.LookupPredicted) },
					func(w int) int64 { return 0 }},
				{"mru", sim.MRU,
					func(w int) int64 { return core.NewMRU(fullGeom(w), 1).StorageBytes() }},
				{"partial-tag", sim.PartialTag,
					func(w int) int64 { return core.NewPartialTag(fullGeom(w), 4, 1).StorageBytes() }},
			}
			for _, p := range preds {
				row := []string{p.name, fmtBytes(p.storage(2))}
				for _, ways := range []int{2, 4, 8} {
					row = append(row, pct(s.ameanAccuracy(p.cfg(ways), suite())))
				}
				t.AddRow(row...)
			}
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "tab5", PaperRef: "Table V",
		Title: "PWS hit-rate, accuracy, and speedup versus PIP",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Table V: PWS sensitivity to the preferred-way install probability",
				"organization", "hit-rate", "wp-accuracy", "speedup")
			for _, pip := range []float64{0.50, 0.60, 0.70, 0.80, 0.85, 0.90} {
				cfg := sim.PWS(pip)
				_, g := s.SuiteSpeedups(cfg, suite())
				t.AddRow(fmt.Sprintf("2-way PWS (PIP=%.0f%%)", pip*100),
					pct(s.ameanHitRate(cfg, suite())),
					pct(s.ameanAccuracy(cfg, suite())), spd(g))
			}
			dm := sim.DirectMapped()
			t.AddRow("direct-mapped (PIP=100%)",
				pct(s.ameanHitRate(dm, suite())), pct(s.ameanAccuracy(dm, suite())), "1.000")
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "fig7", PaperRef: "Figure 7",
		Title: "Way-prediction accuracy of PWS, GWS, and PWS+GWS per workload",
		Run: func(s *Session) []*stats.Table {
			cfgs := []sim.Config{sim.Unbiased(2, dramcache.LookupPredicted), sim.PWS(0.85), sim.GWS(), sim.ACCORD(2)}
			labels := []string{"rand", "pws", "gws", "pws+gws"}
			t := stats.NewTable("Figure 7: 2-way way-prediction accuracy",
				append([]string{"workload"}, labels...)...)
			cols := make([][]float64, len(cfgs))
			for _, wl := range suite() {
				row := []string{wl}
				for ci, cfg := range cfgs {
					a := accuracy(s.Run(cfg, wl))
					cols[ci] = append(cols[ci], a)
					row = append(row, pct(a))
				}
				t.AddRow(row...)
			}
			arow := []string{"AMEAN"}
			for _, col := range cols {
				arow = append(arow, pct(definedAmean(col)))
			}
			t.AddRow(arow...)
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "tab6", PaperRef: "Table VI",
		Title: "Hit-rate of way-steering designs",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Table VI: 2-way hit-rate under way-steering (Amean)",
				"organization", "hit-rate")
			rows := []struct {
				name string
				cfg  sim.Config
			}{
				{"direct-mapped", sim.DirectMapped()},
				{"2-way rand", sim.Unbiased(2, dramcache.LookupPredicted)},
				{"2-way PWS", sim.PWS(0.85)},
				{"2-way GWS", sim.GWS()},
				{"2-way PWS+GWS", sim.ACCORD(2)},
			}
			for _, r := range rows {
				t.AddRow(r.name, pct(s.ameanHitRate(r.cfg, suite())))
			}
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "fig10", PaperRef: "Figure 10",
		Title: "Speedup of 2-way DRAM cache designs",
		Run: func(s *Session) []*stats.Table {
			// The paper's six 2-way designs, extended with the three
			// registry organizations (Banshee, Gemini, TDRAM) so the
			// figure places ACCORD against the alternative L4 backends on
			// the same baseline.
			cfgs := []sim.Config{
				sim.Parallel(2), sim.Serial(2), sim.PWS(0.85), sim.GWS(),
				sim.ACCORD(2), sim.PerfectWP(2),
				sim.Banshee(), sim.Gemini(), sim.TDRAM(2),
			}
			return []*stats.Table{speedupFigure(s, "Figure 10: 2-way speedup over direct-mapped", cfgs, suite())}
		},
	})

	register(Experiment{
		ID: "tab7", PaperRef: "Table VII",
		Title: "Hit-rate of ACCORD designs including SWS",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Table VII: hit-rate of ACCORD designs (Amean)",
				"organization", "hit-rate")
			rows := []struct {
				name string
				cfg  sim.Config
			}{
				{"direct-mapped", sim.DirectMapped()},
				{"ACCORD 2-way", sim.ACCORD(2)},
				{"ACCORD SWS(4,2)", sim.ACCORD(4)},
				{"ACCORD SWS(8,2)", sim.ACCORD(8)},
				{"8-way", sim.Idealized(8)},
			}
			for _, r := range rows {
				t.AddRow(r.name, pct(s.ameanHitRate(r.cfg, suite())))
			}
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "fig13", PaperRef: "Figure 13",
		Title: "Speedup from extending ACCORD with skewed way-steering",
		Run: func(s *Session) []*stats.Table {
			cfgs := []sim.Config{sim.ACCORD(2), sim.ACCORD(4), sim.ACCORD(8)}
			return []*stats.Table{speedupFigure(s, "Figure 13: ACCORD with SWS", cfgs, suite())}
		},
	})

	register(Experiment{
		ID: "fig12", PaperRef: "Figure 12",
		Title: "ACCORD speedup across all 46 workloads",
		Run: func(s *Session) []*stats.Table {
			cfgs := []sim.Config{sim.ACCORD(2), sim.ACCORD(8)}
			all := workloads.AllSuite()
			t := speedupFigure(s, "Figure 12: all 46 workloads", cfgs, all)
			// The paper additionally calls out the mix subset.
			mixes := all[len(all)-10:]
			m := speedupFigure(s, "Figure 12 (mix subset)", cfgs, mixes)
			return []*stats.Table{t, m}
		},
	})

	register(Experiment{
		ID: "tab8", PaperRef: "Table VIII",
		Title: "Sensitivity of ACCORD speedup to cache size",
		Run: func(s *Session) []*stats.Table {
			// The paper's Table VIII uses its best design (SWS(8,2)); in
			// this model the 8-way organization's row-locality cost makes
			// that instance break-even, so the sensitivity study uses the
			// 2-way ACCORD, whose conflict-reduction benefit the table is
			// actually about.
			t := stats.NewTable("Table VIII: ACCORD 2-way speedup vs DRAM cache size",
				"cache size", "speedup")
			anchor := uint64((4 << 30) / s.p.Scale / 64)
			for _, gb := range []int64{1, 2, 4, 8} {
				target := sim.ACCORD(2)
				target.L4CapacityFull = gb << 30
				target.WorkloadAnchorLines = anchor
				target.Name = fmt.Sprintf("%s@%dGB", target.Name, gb)
				base := sim.DirectMapped()
				base.L4CapacityFull = gb << 30
				base.WorkloadAnchorLines = anchor
				base.Name = fmt.Sprintf("%s@%dGB", base.Name, gb)
				var ws []float64
				for _, wl := range suite() {
					ws = append(ws, sim.WeightedSpeedup(s.Run(target, wl), s.Run(base, wl)))
				}
				t.AddRow(fmt.Sprintf("%d GB", gb), spd(gmean(ws)))
			}
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "tab9", PaperRef: "Table IX",
		Title: "Storage requirements of ACCORD",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Table IX: ACCORD storage requirements", "component", "storage")
			full := core.Geometry{Sets: uint64(4<<30) / (64 * 2), Ways: 2}
			pws := core.NewACCORD(core.ACCORDConfig{Geom: full, UsePWS: true, PIP: 0.85, Seed: 1})
			gws := core.NewACCORD(core.ACCORDConfig{Geom: full, UseGWS: true, RITEntries: 64, RLTEntries: 64, Seed: 1})
			sws := core.NewACCORD(core.ACCORDConfig{Geom: core.Geometry{Sets: uint64(4<<30) / (64 * 8), Ways: 8}, UseSWS: true, Seed: 1})
			acc := core.NewACCORD(core.DefaultACCORD(full, 1))
			t.AddRow("probabilistic way-steering", fmtBytes(pws.StorageBytes()))
			t.AddRow("ganged way-steering", fmtBytes(gws.StorageBytes()))
			t.AddRow("skewed way-steering", fmtBytes(sws.StorageBytes()))
			t.AddRow("ACCORD total", fmtBytes(acc.StorageBytes()))
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "fig14", PaperRef: "Figure 14",
		Title: "ACCORD versus conventional way predictors (2-way speedup)",
		Run: func(s *Session) []*stats.Table {
			// The paper's way predictors, extended with the registry
			// organizations (Banshee, Gemini, TDRAM), which sidestep way
			// prediction entirely — the contrast the figure is about.
			cfgs := []sim.Config{
				sim.CACache(), sim.MRU(2), sim.PartialTag(2), sim.ACCORD(2),
				sim.Banshee(), sim.Gemini(), sim.TDRAM(2),
			}
			return []*stats.Table{speedupFigure(s, "Figure 14: way predictors on a 2-way cache", cfgs, suite())}
		},
	})

	register(Experiment{
		ID: "tab10", PaperRef: "Table X",
		Title: "Comparison of way predictors: storage and accuracy",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Table X: way-predictor comparison",
				"metric", "ca-cache", "mru", "partial-tag", "accord")
			full := func(w int) core.Geometry {
				return core.Geometry{Sets: uint64(4<<30) / uint64(64*w), Ways: w}
			}
			t.AddRow("storage (2-way)", "0 B",
				fmtBytes(core.NewMRU(full(2), 1).StorageBytes()),
				fmtBytes(core.NewPartialTag(full(2), 4, 1).StorageBytes()),
				"320 B")
			acc := func(cfg sim.Config) string { return pct(s.ameanAccuracy(cfg, suite())) }
			t.AddRow("accuracy (2-way)", acc(sim.CACache()), acc(sim.MRU(2)), acc(sim.PartialTag(2)), acc(sim.ACCORD(2)))
			t.AddRow("accuracy (4-way)", "n/a", acc(sim.MRU(4)), acc(sim.PartialTag(4)), acc(sim.ACCORD(4)))
			t.AddRow("accuracy (8-way)", "n/a", acc(sim.MRU(8)), acc(sim.PartialTag(8)), acc(sim.ACCORD(8)))
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "fig15", PaperRef: "Figure 15",
		Title: "Off-chip memory system energy",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Figure 15: memory-system energy normalized to direct-mapped (Gmean)",
				"design", "speedup", "power", "energy", "EDP")
			for _, cfg := range []sim.Config{sim.ACCORD(2), sim.ACCORD(8)} {
				var sp, pw, en, edp []float64
				for _, wl := range suite() {
					base := s.Baseline(wl)
					tgt := s.Run(cfg, wl)
					be := energy.Compute(dram.HBM(), base.HBM, dram.PCM(), base.PCM, base.Cycles, cpu.ClockGHz)
					te := energy.Compute(dram.HBM(), tgt.HBM, dram.PCM(), tgt.PCM, tgt.Cycles, cpu.ClockGHz)
					rel := energy.Compare(te, be)
					ws := sim.WeightedSpeedup(tgt, base)
					if rel.Power <= 0 || rel.Energy <= 0 || rel.EDP <= 0 || ws <= 0 {
						continue
					}
					sp = append(sp, ws)
					pw = append(pw, rel.Power)
					en = append(en, rel.Energy)
					edp = append(edp, rel.EDP)
				}
				t.AddRow(cfg.Name, spd(gmean(sp)), spd(gmean(pw)), spd(gmean(en)), spd(gmean(edp)))
			}
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "lru", PaperRef: "Footnote 2",
		Title: "LRU versus random replacement in a 2-way DRAM cache",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Footnote 2: replacement policy bandwidth tax (speedup vs direct-mapped)",
				"organization", "speedup", "hit-rate")
			for _, cfg := range []sim.Config{sim.Unbiased(2, dramcache.LookupPredicted), sim.LRU2Way()} {
				_, g := s.SuiteSpeedups(cfg, suite())
				t.AddRow(cfg.Name, spd(g), pct(s.ameanHitRate(cfg, suite())))
			}
			return []*stats.Table{t}
		},
	})
}

// gmean is the geometric mean of the positive entries of xs, NaN (which
// spd renders as NaN) when there are none.
func gmean(xs []float64) float64 { return stats.NaNIfUndefined(stats.Geomean(xs)) }

// fmtBytes renders a byte count with a human unit.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.0f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
