package exp

import (
	"fmt"

	"accord/internal/sim"
	"accord/internal/stats"
)

// The ablations probe the design choices DESIGN.md calls out, beyond what
// the paper tabulates: GWS region-table sizing (the paper asserts 64
// entries suffice), the multi-alternate SWS(N,k) extension Section V-A
// sketches, and the post-L3-stream modeling substitution (validated
// against explicit L1/L2/L3 simulation).

// ablationSample is a representative slice of the suite (spatial,
// pointer-chasing, streaming, cache-friendly, and sensitive workloads)
// used where sweeping the full 21 workloads would dominate harness time.
var ablationSample = []string{
	"libquantum", "soplex", "mcf", "milc", "sphinx3", "omnetpp", "nekbone",
}

func init() {
	register(Experiment{
		ID: "ablgws", PaperRef: "Section IV-C-2",
		Title: "Ablation: GWS region-table size (the paper's 64-entry claim)",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("GWS table-size ablation (2-way ACCORD, 21-workload suite)",
				"RIT/RLT entries", "wp-accuracy", "hit-rate", "speedup", "storage")
			for _, entries := range []int{4, 16, 64, 256} {
				cfg := sim.ACCORDWithTables(entries)
				_, g := s.SuiteSpeedups(cfg, suite())
				t.AddRow(fmt.Sprint(entries),
					pct(s.ameanAccuracy(cfg, suite())),
					pct(s.ameanHitRate(cfg, suite())),
					spd(g),
					fmtBytes(int64(entries)*2*20/8))
			}
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "ablsws", PaperRef: "Section V-A",
		Title: "Ablation: multi-alternate SWS(8,k) — flexibility vs confirmation cost",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("SWS alternate-count ablation (8-way ACCORD, 21-workload suite)",
				"design", "hit-rate", "probes/read", "speedup")
			for _, alts := range []int{1, 2, 3} {
				cfg := sim.ACCORDSWSK(8, alts)
				_, g := s.SuiteSpeedups(cfg, suite())
				var ppr float64
				for _, wl := range suite() {
					r := s.Run(cfg, wl)
					ppr += r.L4.ProbesPerRead()
				}
				t.AddRow(fmt.Sprintf("SWS(8,%d)", alts+1),
					pct(s.ameanHitRate(cfg, suite())),
					fmt.Sprintf("%.2f", ppr/float64(len(suite()))),
					spd(g))
			}
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "ablhier", PaperRef: "DESIGN.md substitution 2",
		Title: "Ablation: post-L3 stream modeling vs explicit L1/L2/L3 simulation",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Hierarchy-mode ablation (ACCORD 2-way vs direct-mapped)",
				"workload", "speedup (post-L3 streams)", "speedup (full hierarchy)",
				"wp-accuracy (streams)", "wp-accuracy (full)")
			mk := func(cfg sim.Config) (stream, full sim.Config) {
				full = cfg
				full.FullHierarchy = true
				full.Name = cfg.Name + "+hier"
				return cfg, full
			}
			dmS, dmF := mk(sim.DirectMapped())
			accS, accF := mk(sim.ACCORD(2))
			for _, wl := range ablationSample {
				wsS := sim.WeightedSpeedup(s.Run(accS, wl), s.Run(dmS, wl))
				wsF := sim.WeightedSpeedup(s.Run(accF, wl), s.Run(dmF, wl))
				t.AddRow(wl, spd(wsS), spd(wsF),
					pct(accuracy(s.Run(accS, wl))), pct(accuracy(s.Run(accF, wl))))
			}
			return []*stats.Table{t}
		},
	})
}
