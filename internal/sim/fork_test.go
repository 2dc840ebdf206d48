package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"accord/internal/ckpt"
	"accord/internal/core"
	"accord/internal/metrics"
	"accord/internal/workloads"
)

// forkSampling is the interval geometry of the fork tests.
var forkSampling = SamplingConfig{Period: 50_000, DetailLen: 12_000, WarmLen: 5_000, MinIntervals: 2}

// TestForkCopyMatchesRestore is the guard for the two fork paths: for
// every backend, flat and FullHierarchy, on trace-cache and generator
// streams, one and two cores, a boundary copied through a holder into a
// fork (the spine's and the worker's copies) must leave the fork
// exactly as restoring the boundary's snapshot, taken after the interval
// reset, does. The copy fork is dirty from an earlier interval and the
// holder from an earlier boundary, so leftover state would show. Both
// forks must snapshot to the boundary's bytes, measure identical
// intervals, and still agree afterwards, timing state included.
// ACCORD_BACKEND narrows the matrix to one backend.
func TestForkCopyMatchesRestore(t *testing.T) {
	const wlName = "libquantum"
	for _, bc := range backendCases() {
		if backendFilterSkip(t, bc.name) {
			continue
		}
		for _, hier := range []bool{false, true} {
			for _, source := range []string{"trace", "generator"} {
				for _, cores := range []int{1, 2} {
					cfg := bc.cfg
					cfg.Cores = cores
					cfg.FullHierarchy = hier
					cfg.Sampling = forkSampling
					wl := workloads.MustGet(wlName, cores)
					if source == "trace" {
						wl = traceWorkload(wlName, cfg)
					}
					name := fmt.Sprintf("%s/hier=%t/%s/cores=%d", bc.name, hier, source, cores)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						checkForkCopy(t, cfg, wl, wlName)
					})
				}
			}
		}
	}
}

// checkForkCopy runs one cell of TestForkCopyMatchesRestore.
func checkForkCopy(t *testing.T, cfg Config, wl workloads.Workload, wlName string) {
	sc := cfg.Sampling
	live := New(cfg, wl)
	live.RunWarmupFunctional()
	advance := func() {
		targets := make([]int64, len(live.cores))
		for i, c := range live.cores {
			targets[i] = c.Instructions() + sc.Period
		}
		live.advanceFunctional(targets)
		live.resetIntervalState()
	}
	holder, viaCopy := New(cfg, wl), New(cfg, wl)

	// Dirty the holder and the copy fork with an earlier boundary.
	advance()
	if err := holder.copyFunctionalFrom(live); err != nil {
		t.Fatal(err)
	}
	if err := viaCopy.copyFunctionalFrom(holder); err != nil {
		t.Fatal(err)
	}
	viaCopy.measureInterval(sc)

	advance()
	blob, err := live.Snapshot(wlName)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.copyFunctionalFrom(live); err != nil {
		t.Fatal(err)
	}
	if err := viaCopy.copyFunctionalFrom(holder); err != nil {
		t.Fatal(err)
	}
	viaRestore := New(cfg, wl)
	if err := viaRestore.Restore(blob, wlName); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*System{"holder": holder, "copy fork": viaCopy, "restored fork": viaRestore} {
		got, err := s.Snapshot(wlName)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("%s: Snapshot differs from the boundary's (%d vs %d bytes)", name, len(got), len(blob))
		}
	}

	rc, rr := viaCopy.measureInterval(sc), viaRestore.measureInterval(sc)
	if !reflect.DeepEqual(rc, rr) {
		t.Fatalf("measured intervals differ:\ncopy    %+v\nrestore %+v", rc, rr)
	}
	after, err := viaCopy.Snapshot(wlName)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := viaRestore.Snapshot(wlName); !bytes.Equal(after, want) {
		t.Fatal("forks diverged over the measured interval")
	}
}

// nonCopyingPolicy forwards an ACCORD policy, its checkpoint methods and
// its metrics, but not CopyFrom, like a custom policy written before the
// method existed.
type nonCopyingPolicy struct {
	core.Policy
	acc *core.ACCORD
}

func (p nonCopyingPolicy) Snapshot(e *ckpt.Encoder)      { p.acc.Snapshot(e) }
func (p nonCopyingPolicy) Restore(d *ckpt.Decoder) error { return p.acc.Restore(d) }
func (p nonCopyingPolicy) RegisterMetrics(r *metrics.Registry, prefix string) {
	p.acc.RegisterMetrics(r, prefix)
}

// TestMemoryForks pins which fork each sampled run uses. The
// benchmark's kind of run (nway + ACCORD, flat hierarchy, trace-cache
// cursors, two workers) hands every boundary over as a copy, and so does
// a one-worker run, on one core and on two. A run with a checkpoint
// directory copies every boundary it computes, populating or resumed; a
// run with a policy that cannot copy itself uses the codec. Every
// two-core run gives the same Result.
func TestMemoryForks(t *testing.T) {
	const wlName = "libquantum"
	cfg := parallelCases(2, false)[1] // accord-2way
	cfg.SampleWorkers = 2
	wl := traceWorkload(wlName, cfg)
	run := func(cfg Config) (Result, SampleWork) {
		s := New(cfg, wl)
		res := s.Run(wlName)
		return res, s.SampleWork()
	}

	want, work := run(cfg)
	if work.Dispatched == 0 || work.MemoryForks != work.Dispatched {
		t.Fatalf("copy-forked run: memory_forks %d, dispatched %d", work.MemoryForks, work.Dispatched)
	}
	if got := work.ManifestEntry()["memory_forks"]; got != int64(work.MemoryForks) {
		t.Errorf("manifest memory_forks = %d, want %d", got, work.MemoryForks)
	}

	for _, cores := range []int{1, 2} {
		one := parallelCases(cores, false)[1]
		one.SampleWorkers = 1
		s := New(one, traceWorkload(wlName, one))
		res := s.Run(wlName)
		work := s.SampleWork()
		if work.Workers != 1 || work.Dispatched == 0 || work.MemoryForks != work.Dispatched {
			t.Errorf("one worker, %d cores: workers %d, memory_forks %d, dispatched %d; want every boundary copied",
				cores, work.Workers, work.MemoryForks, work.Dispatched)
		}
		if cores == 2 && !reflect.DeepEqual(res, want) {
			t.Errorf("one worker: Result differs from the two-worker run")
		}
	}

	lattice := cfg
	lattice.SpineCheckpointDir = t.TempDir()
	for _, hits := range []int{0, 1} {
		res, work := run(lattice)
		if work.LatticeHits != hits || work.Dispatched == 0 || work.MemoryForks != work.LatticeMisses {
			t.Errorf("lattice run %d: hits %d, memory_forks %d, lattice_misses %d, dispatched %d; want every computed boundary copied",
				hits, work.LatticeHits, work.MemoryForks, work.LatticeMisses, work.Dispatched)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("lattice run %d: Result differs from the run without a directory", hits)
		}
	}

	custom := cfg
	custom.Policy = func(g core.Geometry, seed int64) core.Policy {
		p := core.NewACCORD(core.DefaultACCORD(g, seed))
		return nonCopyingPolicy{Policy: p, acc: p}
	}
	res, work := run(custom)
	if work.MemoryForks != 0 || work.Dispatched == 0 {
		t.Errorf("non-copying policy: memory_forks %d, dispatched %d; want a codec-forked run", work.MemoryForks, work.Dispatched)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("non-copying policy: Result differs from the copy-forked run")
	}
}

// opaquePolicy forwards only the core.Policy methods of an ACCORD
// policy: it can neither snapshot nor copy itself.
type opaquePolicy struct{ core.Policy }

// TestSampledUnforkablePanics pins that a system which can neither copy
// nor snapshot its state makes RunSampled panic, naming the policy,
// before it warms up or dispatches anything.
func TestSampledUnforkablePanics(t *testing.T) {
	const wlName = "libquantum"
	cfg := parallelCases(1, false)[1] // accord-2way
	cfg.SampleWorkers = 1
	cfg.Policy = func(g core.Geometry, seed int64) core.Policy {
		return opaquePolicy{core.NewACCORD(core.DefaultACCORD(g, seed))}
	}
	s := New(cfg, traceWorkload(wlName, cfg))
	func() {
		defer func() {
			msg, _ := recover().(string)
			for _, want := range []string{"cannot fork", "does not support copying", "does not support checkpointing"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q does not contain %q", msg, want)
				}
			}
		}()
		s.Run(wlName)
	}()
	if work := s.SampleWork(); work.Dispatched != 0 {
		t.Errorf("dispatched %d intervals before panicking", work.Dispatched)
	}
	if n := s.Cores()[0].Instructions(); n != 0 {
		t.Errorf("core retired %d instructions before the panic, want 0", n)
	}
}
