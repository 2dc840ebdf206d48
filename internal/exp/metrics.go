package exp

import (
	"sort"

	"accord/internal/metrics"
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
		out.Runs = append(out.Runs, p.e.res.ExportRun())
	}
	return out
}
