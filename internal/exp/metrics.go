package exp

import (
	"sort"

	"accord/internal/metrics"
	"accord/internal/sim"
)

// ExportMetrics packages every simulation the session has completed into
// a machine-readable export: one metrics.Run per memoized design point,
// carrying the final snapshot (and epoch series when Params.EpochInstr
// was set) alongside the headline table statistics. The manifest, when
// non-nil, is embedded so a single file identifies the code, config, and
// seed that produced the numbers.
//
// Runs are ordered deterministically — by memo key: config name, then
// workload, then the rest of the key — regardless of the parallelism or
// experiment order that produced them, so exports diff cleanly across
// invocations. In-flight simulations are waited for; planning sessions
// export nothing.
func (s *Session) ExportMetrics(man *metrics.Manifest) *metrics.Export {
	out := &metrics.Export{Manifest: man}
	if s.planning != nil {
		return out
	}

	type pending struct {
		k string
		e *entry
	}
	s.mu.Lock()
	runs := make([]pending, 0, len(s.memo))
	for k, e := range s.memo {
		runs = append(runs, pending{k, e})
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].k < runs[j].k })

	for _, p := range runs {
		<-p.e.done
		out.Runs = append(out.Runs, toRun(p.e.res))
	}
	return out
}

// toRun flattens a simulation result into the export record.
func toRun(res sim.Result) metrics.Run {
	return metrics.Run{
		Config:       res.Config,
		Workload:     res.Workload,
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		MeanIPC:      res.MeanIPC(),
		HitRate:      res.HitRate(),
		Sampled:      toSampled(res.Sampled),
		Metrics:      res.Metrics,
	}
}

// toSampled converts a sampling summary to its export form; nil in, nil
// out (exact runs carry no sampled block).
func toSampled(ss *sim.SampleSummary) *metrics.Sampled {
	if ss == nil {
		return nil
	}
	return &metrics.Sampled{
		Intervals:  ss.Intervals,
		Planned:    ss.Planned,
		Converged:  ss.Converged,
		Confidence: ss.Confidence,
		IPC:        toSampledCI(ss.IPC),
		HitRate:    toSampledCI(ss.HitRate),
		MPKI:       toSampledCI(ss.MPKI),
	}
}

// toSampledCI converts one estimate, preserving the undefined-not-zero
// convention: no observations → absent block; one observation → mean
// without a half-width.
func toSampledCI(m sim.MetricCI) *metrics.SampledCI {
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
