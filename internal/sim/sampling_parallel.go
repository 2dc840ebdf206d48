package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accord/internal/ckpt"
)

// Parallel interval sampling (DESIGN.md §12). One spine goroutine owns
// the live system and advances it functionally, period by period. At
// each interval boundary it resets the canonical interval-start state
// and hands the boundary to a worker pool, as a pooled in-memory copy
// (fork.go) or, when a component cannot copy itself or the boundary is
// a lattice hit, as a Snapshot blob. Each worker copies or
// restores the boundary into its own fork System and runs the detailed
// warm+measured legs there. Results are committed strictly in interval
// order on the caller's goroutine, so the observation sequence — and
// therefore the early-stop decision — is the same at any worker count,
// one included.
//
// Speculation accounting: the spine runs ahead of the committed prefix
// by up to the jobs-channel buffer plus the in-flight workers (~2x the
// worker count). Intervals dispatched past the early-stop point are
// cancelled (workers observe the stop channel and skip them) or their
// results discarded by the committer; SampleWork reports the split. The
// discarded work never touches the live system — forks are separate
// Systems — and finishSampled's copy or restore of the last committed
// boundary erases the spine's own speculative functional advance.

// forceFreshForkSystems makes every worker rebuild its fork System per
// job, and the holder pool build a fresh holder per boundary, instead of
// reusing them across intervals. Test hook: the pooled-fork differential
// test proves a copy or restore (which ends with resetIntervalState)
// fully resets a reused System by comparing against this mode.
var forceFreshForkSystems = false

// SampleWork reports how a sampled run's execution was split. It is
// diagnostic only — wall-clock and speculation counts depend on worker
// count and scheduling — and is deliberately kept out of Result and the
// exported metrics, which are identical at any worker count.
type SampleWork struct {
	// Workers is the resolved worker count actually used (after the
	// GOMAXPROCS default and the planned-interval cap).
	Workers int
	// Dispatched counts intervals whose detailed legs were started;
	// Committed counts those folded into the result (always the ordered
	// prefix); Discarded = Dispatched - Committed is the speculative
	// overshoot past the early-stop point.
	Dispatched int
	Committed  int
	Discarded  int
	// SpineTime is time spent on the spine: functional warmup and
	// advances, boundary copies, snapshots and restores, and lattice
	// probes and saves. DetailTime is the total detailed simulation time
	// across all workers (it can exceed WallTime when workers overlap);
	// WallTime covers all of RunSampled.
	SpineTime  time.Duration
	DetailTime time.Duration
	WallTime   time.Duration
	// MemoryForks counts dispatched intervals whose boundary was handed
	// to the worker as an in-memory copy rather than a snapshot blob:
	// every boundary the spine computed (Dispatched less the lattice
	// hits) when every component can copy its state, zero otherwise.
	MemoryForks int
	// SpineSaveTime is the part of SpineTime the spine spent saving
	// boundary snapshots into the checkpoint lattice, in line.
	// LatticeHits and LatticeMisses count boundary probes (zero when no
	// checkpoint directory is configured): a fully warm run reports
	// Hits == Dispatched, a cold run Misses == Dispatched. An exact run
	// probes its one warm-state entry: one hit or one miss.
	SpineSaveTime time.Duration
	LatticeHits   int
	LatticeMisses int
}

// ManifestEntry renders the split as a flat map for run manifests.
// Durations are nanoseconds, matching time.Duration's integer form.
func (w SampleWork) ManifestEntry() map[string]int64 {
	return map[string]int64{
		"workers":        int64(w.Workers),
		"dispatched":     int64(w.Dispatched),
		"committed":      int64(w.Committed),
		"discarded":      int64(w.Discarded),
		"memory_forks":   int64(w.MemoryForks),
		"spine_ns":       int64(w.SpineTime),
		"detail_ns":      int64(w.DetailTime),
		"wall_ns":        int64(w.WallTime),
		"spine_save_ns":  int64(w.SpineSaveTime),
		"lattice_hits":   int64(w.LatticeHits),
		"lattice_misses": int64(w.LatticeMisses),
	}
}

// Add folds o into w as a total over several runs: Workers is the larger
// of the two, every other field the sum.
func (w *SampleWork) Add(o SampleWork) {
	w.Workers = max(w.Workers, o.Workers)
	w.Dispatched += o.Dispatched
	w.Committed += o.Committed
	w.Discarded += o.Discarded
	w.SpineTime += o.SpineTime
	w.DetailTime += o.DetailTime
	w.WallTime += o.WallTime
	w.MemoryForks += o.MemoryForks
	w.SpineSaveTime += o.SpineSaveTime
	w.LatticeHits += o.LatticeHits
	w.LatticeMisses += o.LatticeMisses
}

// SampleWork returns the execution split of the last sampled run (zero
// value before any).
func (s *System) SampleWork() SampleWork { return s.work }

// sampleJob hands one interval boundary to the worker pool, as a pooled
// holder or as a Snapshot blob. buf is the entry buffer holding a blob a
// lattice probe loaded, nil for a blob the spine encoded.
type sampleJob struct {
	index  int
	holder *System
	blob   []byte
	buf    *[]byte
}

// runSampledParallel drives intervals on a worker pool fed by a
// functional spine. The caller's goroutine is the committer.
//
// With a pool (forkPlan), the spine copies each boundary it computes
// into a holder from it. The holder stays attached to its interval's
// result until a later commit supersedes it or the interval is cancelled
// or discarded, and then goes back to the pool; the last committed one
// anchors finishSampled. The first copy is the run's trial: if it fails,
// and without a pool, the spine hands over each boundary's snapshot
// instead. It snapshots a boundary otherwise only to save it, in line.
//
// With a lattice, the spine probes each boundary before computing it. A
// hit dispatches the stored blob, in its entry buffer, without touching
// the live system, which goes "stale" — it still holds an earlier
// boundary's state. The next miss repairs that by restoring the last
// hit's blob before advancing, so the functional trajectory between
// boundaries is identical to a cold spine's. Warmup runs lazily on the
// first miss; a fully warm run never warms up, never advances, never
// copies, and the spine degenerates to lattice lookups. Entry buffers go
// back to the lattice's free list where holders go back to the pool.
//
// Every blob a run holds is either a lattice hit, whose load verified
// its checksum, or a snapshot this process encoded, so the workers, the
// catch-up and finishSampled all decode without a CRC pass.
func (s *System) runSampledParallel(st *sampleState, workers int, lat *spineLattice, pool *freeList[*System]) {
	sc := st.sc
	funcLen := sc.Period - sc.WarmLen - sc.DetailLen
	n := len(s.cores)

	// jobs is buffered so the spine can run ahead while all workers are
	// busy; its capacity bounds speculation depth. results is drained
	// unconditionally by the committer, so workers never block on it
	// indefinitely.
	jobs := make(chan sampleJob, workers)
	results := make(chan *intervalResult, workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopAll := func() { stopOnce.Do(func() { close(stop) }) }

	release := func(holder *System, buf *[]byte) {
		if holder != nil {
			pool.put(holder)
		}
		if buf != nil {
			lat.bufs.put(buf)
		}
	}

	// Spine-local counters, published to s.work only after spineDone.
	var dispatched, memoryForks int
	var spineNS int64
	var detailNS int64 // atomic: added by every worker
	spineDone := make(chan struct{})

	go func() { // spine
		defer close(jobs)
		defer close(spineDone)
		next := make([]int64, n)
		warmed := false
		// copies is the spine's own view of pool: nil once the trial copy,
		// the run's first, has failed. pool itself never changes, since
		// the workers and the committer return holders to it.
		copies, tried := pool, false
		// A lattice hit dispatches without advancing, leaving the live
		// system stale: behind the hit's boundary, whose snapshot lastBlob
		// holds in the entry buffer lastBuf until the next miss restores it.
		var lastBlob []byte
		var lastBuf *[]byte
		for k := 0; k < st.planned; k++ {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			var blob []byte
			var buf *[]byte
			var holder *System
			if p, b, ok := lat.probe(k, lastBuf); ok {
				blob, buf = p, b
				lastBlob, lastBuf = p, b
				warmed = true
			} else {
				if !warmed {
					s.RunWarmupFunctional()
					for i, c := range s.cores {
						next[i] = c.Instructions() + funcLen
					}
					warmed = true
				}
				if lastBlob != nil {
					// Catch the live system up to boundary k-1 before walking
					// to k, reproducing the cold spine's trajectory exactly.
					if err := s.restore(ckpt.NewDecoderVerified(lastBlob), st.wlName); err != nil {
						panic(fmt.Sprintf("sim: spine catch-up restore failed: %v", err))
					}
					for i, c := range s.cores {
						next[i] = c.Instructions() + sc.Period
					}
					lastBlob, lastBuf = nil, nil
				}
				if k > 0 || funcLen > 0 {
					s.advanceFunctional(next)
				}
				s.resetIntervalState()
				if copies != nil {
					holder = copies.get()
					if err := holder.copyFunctionalFrom(s); err != nil {
						if tried {
							panic(fmt.Sprintf("sim: interval copy failed after passing the trial copy: %v", err))
						}
						holder, copies = nil, nil
					}
					tried = true
				}
				if save := lat.saves(k); save || copies == nil {
					b, err := s.Snapshot(st.wlName)
					if err != nil {
						panic(fmt.Sprintf("sim: interval snapshot failed after passing the trial snapshot: %v", err))
					}
					if save {
						lat.save(k, b)
					}
					if copies == nil {
						blob = b
					}
				}
				// The next boundary is an absolute target captured at this one:
				// B + Period, independent of any detailed leg's overshoot.
				for i, c := range s.cores {
					next[i] = c.Instructions() + sc.Period
				}
			}
			spineNS += int64(time.Since(t0))
			select {
			case jobs <- sampleJob{index: k, holder: holder, blob: blob, buf: buf}:
				dispatched++
				if holder != nil {
					memoryForks++
				}
			case <-stop:
				release(holder, buf)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fork *System
			for job := range jobs {
				select {
				case <-stop:
					// Cancelled: drain the queue without simulating.
					release(job.holder, job.buf)
					continue
				default:
				}
				if fork == nil || forceFreshForkSystems {
					fork = New(s.cfg, s.wl)
				}
				var err error
				if job.holder != nil {
					err = fork.copyFunctionalFrom(job.holder)
				} else {
					err = fork.restore(ckpt.NewDecoderVerified(job.blob), st.wlName)
				}
				if err != nil {
					panic(fmt.Sprintf("sim: fork restore failed: %v", err))
				}
				t0 := time.Now()
				r := fork.measureInterval(sc)
				atomic.AddInt64(&detailNS, int64(time.Since(t0)))
				r.index = job.index
				r.holder = job.holder
				r.blob = job.blob
				r.buf = job.buf
				results <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Committer: fold results into st strictly in interval order. Out-of-
	// order arrivals park in pending until their predecessors land.
	pending := make(map[int]*intervalResult, workers)
	nextCommit := 0
	stopped := false
	for r := range results {
		if stopped {
			release(r.holder, r.buf) // past the stop point: discard
			continue
		}
		pending[r.index] = r
		for {
			q, ok := pending[nextCommit]
			if !ok {
				break
			}
			delete(pending, nextCommit)
			nextCommit++
			superseded := st.last
			stop := st.commit(q)
			if superseded != nil {
				release(superseded.holder, superseded.buf)
				superseded.holder, superseded.blob, superseded.buf = nil, nil, nil
			}
			if stop {
				stopped = true
				stopAll()
				break
			}
		}
	}
	stopAll()
	<-spineDone

	s.work.Dispatched = dispatched
	s.work.MemoryForks = memoryForks
	s.work.SpineTime = time.Duration(spineNS)
	s.work.DetailTime = time.Duration(atomic.LoadInt64(&detailNS))
}
