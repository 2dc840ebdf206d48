package sim

import (
	"math"

	"accord/internal/metrics"
	"accord/internal/stats"
)

// ExportRun flattens r into its metrics-export record: the headline
// numbers, the sampling summary (absent for an exact run) and the metrics
// bundle. exp.Session.ExportMetrics and accordsim's -metrics-out both
// write it.
func (r Result) ExportRun() metrics.Run {
	return metrics.Run{
		Config:       r.Config,
		Workload:     r.Workload,
		Instructions: r.Instructions,
		Cycles:       r.Cycles,
		MeanIPC:      r.MeanIPC(),
		HitRate:      r.HitRate(),
		Sampled:      r.Sampled.export(),
		Metrics:      r.Metrics,
	}
}

// export converts a sampling summary to its export form; nil in, nil out.
func (ss *SampleSummary) export() *metrics.Sampled {
	if ss == nil {
		return nil
	}
	return &metrics.Sampled{
		Intervals:  ss.Intervals,
		Planned:    ss.Planned,
		Converged:  ss.Converged,
		Confidence: ss.Confidence,
		IPC:        ss.IPC.export(),
		HitRate:    ss.HitRate.export(),
		MPKI:       ss.MPKI.export(),
	}
}

// export converts one estimate, keeping the undefined-not-zero
// convention: no observations → absent block; one observation → mean
// without a half-width.
func (m MetricCI) export() *metrics.SampledCI {
	if !m.Valid() {
		return nil
	}
	out := &metrics.SampledCI{Mean: m.Mean, Intervals: m.N}
	if m.OK {
		half := m.Half
		out.Half = &half
	}
	return out
}

// Registry exposes the system's metrics registry for inspection; its
// final snapshot also travels with every Result.
func (s *System) Registry() *metrics.Registry { return s.reg }

// registerMetrics wires every assembled component into the system
// registry. All registrations are views over the components' live
// counters — the hot path never touches the registry — so the plain-text
// tables (rendered from the same counters) and the JSON/CSV export
// cannot diverge.
func (s *System) registerMetrics() {
	r := s.reg

	// DRAM cache (L4), including latency histograms, derived rates, and —
	// for backends with an attached policy that reports anything (GWS
	// table behavior) — the policy's own metrics. Registration is part of
	// the backend contract, so no type switching happens here.
	s.l4.RegisterMetrics(r, "l4")

	// Memory devices on both sides of the cache.
	s.hbm.RegisterMetrics(r, "hbm")
	s.pcm.RegisterMetrics(r, "pcm")

	// Shared L3, only materialized in full-hierarchy mode.
	if s.l3 != nil {
		s.l3.RegisterMetrics(r, "l3")
	}

	// Core aggregates. The counters are cumulative over the whole run;
	// the window gauges cover the measured window (and are what epoch
	// samples track over time).
	r.CounterFunc("cpu.reads", "demand reads issued by all cores", func() uint64 {
		var n uint64
		for _, c := range s.cores {
			reads, _, _, _ := c.Counters()
			n += reads
		}
		return n
	})
	r.CounterFunc("cpu.writes", "writebacks issued by all cores", func() uint64 {
		var n uint64
		for _, c := range s.cores {
			_, writes, _, _ := c.Counters()
			n += writes
		}
		return n
	})
	r.CounterFunc("cpu.dep_stalls", "cycles lost to dependent-load serialization", func() uint64 {
		var n uint64
		for _, c := range s.cores {
			_, _, dep, _ := c.Counters()
			n += dep
		}
		return n
	})
	r.CounterFunc("cpu.mshr_stalls", "issue stalls on a full MSHR file", func() uint64 {
		var n uint64
		for _, c := range s.cores {
			_, _, _, mshr := c.Counters()
			n += mshr
		}
		return n
	})
	r.GaugeFunc("cpu.window_instructions", "instructions retired in the measured window, all cores", func() float64 {
		var n int64
		for _, c := range s.cores {
			n += c.WindowInstructions()
		}
		return float64(n)
	})
	r.GaugeFunc("cpu.window_cycles", "longest per-core measured window, cycles", func() float64 {
		var n int64
		for _, c := range s.cores {
			if wc := c.WindowCycles(); wc > n {
				n = wc
			}
		}
		return float64(n)
	})
	r.GaugeFunc("cpu.mean_ipc", "arithmetic mean of per-core IPC (absent before any cycle elapses)", func() float64 {
		return s.meanIPC()
	})

	// Interval-sampling estimates (absent until a sampled run finishes).
	if s.cfg.Sampling.Enabled() {
		s.registerSamplingMetrics()
	}

	// System-level bandwidth-bloat ratio (the paper's Figure 13 metric):
	// DRAM-cache device bytes moved per byte of demand data. Defined via
	// the NaN-or-ok form so an untouched system exports "absent", not 0.
	r.GaugeFunc("system.l4_bytes_per_demand_byte", "DRAM-cache device traffic per demand byte (absent before any read)", func() float64 {
		hs := s.hbm.Stats()
		demand := float64(s.l4.Stats().Reads) * 64
		return stats.NaNIfUndefined(stats.RatioOK(float64(hs.BytesRead+hs.BytesWritten), demand))
	})
}

// meanIPC is the cpu.mean_ipc gauge: once the measurement window has
// closed it returns exactly Result.MeanIPC; mid-run (epoch samples) it
// returns the mean of the cores' live window IPCs.
func (s *System) meanIPC() float64 {
	if s.resIPC != nil {
		return Result{IPC: s.resIPC}.MeanIPC()
	}
	sum, n := 0.0, 0
	for _, c := range s.cores {
		if cyc := c.WindowCycles(); cyc > 0 {
			sum += float64(c.WindowInstructions()) / float64(cyc)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
