package exp

import (
	"sync"
	"sync/atomic"

	"accord/internal/sim"
	"accord/internal/stats"
)

// The scheduler turns an experiment into a two-phase job: a planning pass
// enumerates the design points the experiment will simulate, then a
// bounded worker pool fans them out across cores. The experiment's table
// builder finally runs on the calling goroutine against the warm memo, so
// parallel and sequential executions render byte-identical tables — the
// pool changes only who performs each deterministic simulation, never
// which results the tables are assembled from.

// Point is one (configuration, workload) design point of an experiment.
type Point struct {
	Config   sim.Config
	Workload string
}

// planRecorder collects the distinct design points a planning pass
// requests, in first-use order.
type planRecorder struct {
	mu    sync.Mutex
	seen  map[string]struct{} // by appendKey
	order []Point
}

func (p *planRecorder) record(k []byte, cfg sim.Config, workload string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.seen[string(k)]; ok {
		return
	}
	p.seen[string(k)] = struct{}{}
	p.order = append(p.order, Point{Config: cfg, Workload: workload})
}

// Plan dry-runs e's table builder against a recording session and returns
// the distinct design points it would simulate, in first-use order. The
// recording session hands back zero-valued results without simulating;
// the experiment catalog picks its design points independently of result
// values, so the plan matches the real execution. If a builder cannot
// tolerate zero results and panics, the points gathered up to that moment
// are returned — the remainder simply runs lazily (and still memoized)
// during the real pass.
func (s *Session) Plan(e Experiment) []Point {
	rec := &planRecorder{seen: make(map[string]struct{})}
	ps := &Session{p: s.p, planning: rec}
	ps.p.Progress = nil
	func() {
		defer func() { _ = recover() }()
		e.Run(ps)
	}()
	return rec.order
}

// Prefetch simulates the given design points on a bounded worker pool,
// populating the session memo. Points already cached or in flight are
// deduplicated by the memo itself, so overlapping prefetches (every
// experiment shares the direct-mapped baseline) never duplicate work.
// It returns once every point is resolved.
func (s *Session) Prefetch(points []Point) {
	workers := s.p.parallelism()
	if workers > len(points) {
		workers = len(points)
	}
	if workers < 1 {
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				s.run(id, points[i].Config, points[i].Workload)
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// RunExperiment executes one experiment: when the session allows more
// than one worker, its design points are planned and fanned out first;
// the tables are then assembled sequentially from the memo. Output is
// byte-identical to calling e.Run(s) directly.
func (s *Session) RunExperiment(e Experiment) []*stats.Table {
	if s.p.parallelism() > 1 {
		s.Prefetch(s.Plan(e))
	}
	return e.Run(s)
}
