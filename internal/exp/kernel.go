package exp

import (
	"fmt"

	"accord/internal/core"
	"accord/internal/cpu"
	"accord/internal/dram"
	"accord/internal/dramcache"
	"accord/internal/memtypes"
	"accord/internal/stats"
)

// kernelCache builds a small 2-way cache with a PWS policy for the cyclic
// reference kernel of Section IV-B-1. This deliberately constructs the
// concrete nway organization rather than going through the backend
// registry: the kernel is a microbenchmark of PWS way-steering mechanics,
// not an organization comparison, so it is pinned to the paper's cache.
func kernelCache(sets uint64, pip float64, seed int64) *dramcache.Cache {
	hbm := dram.New(dram.HBM(), cpu.ClockGHz)
	pcm := dram.New(dram.PCM(), cpu.ClockGHz)
	pol := core.NewACCORD(core.ACCORDConfig{
		Geom:   core.Geometry{Sets: sets, Ways: 2},
		UsePWS: true, PIP: pip, Seed: seed,
	})
	return dramcache.New(dramcache.Config{
		CapacityBytes: int64(sets) * 2 * memtypes.LineSize,
		Ways:          2,
		Lookup:        dramcache.LookupPredicted,
	}, pol, hbm, pcm)
}

// cyclicHitRate runs the (a,b)^N kernel: two lines that map to the same
// set and share the same preferred way, accessed alternately N times, on a
// fresh cache. It returns the hit rate over the 2N accesses, averaged over
// trials (each trial a different set and seed).
func cyclicHitRate(pip float64, n, trials int) float64 {
	const sets = 256
	var hits, total uint64
	for trial := 0; trial < trials; trial++ {
		c := kernelCache(sets, pip, int64(trial+1))
		set := uint64(trial) % sets
		// Both tags even: both lines prefer way 0 and conflict under PWS.
		a := memtypes.LineAddr(uint64(2)*sets + set)
		b := memtypes.LineAddr(uint64(4)*sets + set)
		for i := 0; i < n; i++ {
			c.AccessRead(0, a)
			c.AccessRead(0, b)
		}
		s := c.Stats()
		hits += s.ReadHits
		total += s.Reads
	}
	return float64(hits) / float64(total)
}

func init() {
	register(Experiment{
		ID: "fig6", PaperRef: "Figure 6",
		Title: "Cyclic reference kernel (a,b)^N: hit-rate versus PIP",
		Run: func(s *Session) []*stats.Table {
			pips := []float64{0.50, 0.70, 0.80, 0.90}
			header := []string{"N"}
			for _, p := range pips {
				header = append(header, fmt.Sprintf("PIP=%.0f%%", p*100))
			}
			header = append(header, "direct-mapped")
			t := stats.NewTable("Figure 6: cyclic-reference kernel hit-rate (2-way PWS)", header...)
			trials := 200
			if s.p.Scale > 512 { // quick mode
				trials = 50
			}
			for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
				row := []string{fmt.Sprint(n)}
				for _, p := range pips {
					row = append(row, pct(cyclicHitRate(p, n, trials)))
				}
				row = append(row, pct(cyclicHitRate(1.0, n, trials))) // PIP=100% = direct-mapped
				t.AddRow(row...)
			}
			return []*stats.Table{t}
		},
	})

	register(Experiment{
		ID: "tab1", PaperRef: "Table I",
		Title: "Probe counts per lookup design (measured against the analytic table)",
		Run: func(s *Session) []*stats.Table {
			t := stats.NewTable("Table I: 72B transfers per access on a 4-way cache (measured)",
				"organization", "hit transfers (avg)", "miss transfers")
			const ways = 4
			const sets = 64
			build := func(lookup dramcache.Lookup) *dramcache.Cache {
				hbm := dram.New(dram.HBM(), cpu.ClockGHz)
				pcm := dram.New(dram.PCM(), cpu.ClockGHz)
				// PIP=1.0 steers every install to its preferred way, so
				// line placement is known exactly.
				pol := core.NewACCORD(core.ACCORDConfig{
					Geom:   core.Geometry{Sets: sets, Ways: ways},
					UsePWS: true, PIP: 1.0, Seed: 1,
				})
				return dramcache.New(dramcache.Config{
					CapacityBytes: sets * ways * memtypes.LineSize,
					Ways:          ways,
					Lookup:        lookup,
				}, pol, hbm, pcm)
			}
			measure := func(lookup dramcache.Lookup) (hitAvg float64, missN float64) {
				c := build(lookup)
				// Install one line per way (tags 0..3 prefer ways 0..3).
				lines := make([]memtypes.LineAddr, ways)
				for w := 0; w < ways; w++ {
					lines[w] = memtypes.LineAddr(uint64(w)*sets + 1)
					c.AccessRead(0, lines[w])
				}
				before := *c.Stats()
				for _, l := range lines {
					c.AccessRead(0, l) // all hits
				}
				afterHits := *c.Stats()
				hitAvg = float64(afterHits.ProbeReads-before.ProbeReads) / float64(ways)
				c.AccessRead(0, memtypes.LineAddr(uint64(99)*sets+2)) // a miss
				after := *c.Stats()
				missN = float64(after.ProbeReads - afterHits.ProbeReads)
				return hitAvg, missN
			}
			rows := []struct {
				name   string
				lookup dramcache.Lookup
			}{
				{"parallel lookup (4-way)", dramcache.LookupParallel},
				{"serial lookup (4-way)", dramcache.LookupSerial},
				{"way-predicted (4-way)", dramcache.LookupPredicted},
				{"idealized (4-way)", dramcache.LookupIdealized},
			}
			// Direct-mapped reference first.
			{
				hbm := dram.New(dram.HBM(), cpu.ClockGHz)
				pcm := dram.New(dram.PCM(), cpu.ClockGHz)
				dm := dramcache.New(dramcache.Config{
					CapacityBytes: sets * memtypes.LineSize, Ways: 1,
					Lookup: dramcache.LookupPredicted,
				}, core.NewRand(core.Geometry{Sets: sets, Ways: 1}, 1), hbm, pcm)
				dm.AccessRead(0, 1)
				before := *dm.Stats()
				dm.AccessRead(0, 1)
				mid := *dm.Stats()
				dm.AccessRead(0, 1+sets)
				after := *dm.Stats()
				t.AddRow("direct-mapped",
					fmt.Sprintf("%.2f", float64(mid.ProbeReads-before.ProbeReads)),
					fmt.Sprintf("%.0f", float64(after.ProbeReads-mid.ProbeReads)))
			}
			for _, r := range rows {
				h, m := measure(r.lookup)
				t.AddRow(r.name, fmt.Sprintf("%.2f", h), fmt.Sprintf("%.0f", m))
			}
			return []*stats.Table{t}
		},
	})
}
