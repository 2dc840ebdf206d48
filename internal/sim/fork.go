package sim

import (
	"fmt"
	"sync"

	"accord/internal/ckpt"
	"accord/internal/dramcache"
)

// In-memory interval forks (DESIGN.md §12.1). The boundary state a
// sampled run computes and hands its workers never needs to leave the
// process, so encoding it (Snapshot) and decoding it (Restore) is wasted
// work. Instead the spine copies the live system into a pooled holder
// System, and a worker copies the holder into its own fork. Each
// component copies into the destination's existing buffers, leaving it
// exactly as a restore of the source's snapshot would, so the two fork
// paths give byte-identical results (TestForkCopyMatchesRestore). The
// codec carries only the blobs a run holds: lattice hits, and every
// boundary of a system that cannot copy itself.

// l4Copier is the optional in-memory fork method of an L4 backend (every
// bundled organization has one, see dramcache/copy.go). It is not part
// of dramcache.Interface: a backend without it, such as a wrapper that
// forwards only the interface, makes the run fork through the codec.
type l4Copier interface {
	CopyFrom(src dramcache.Interface) error
}

// copyFunctionalFrom makes s a copy of src's functional state followed
// by the interval reset. For src at an interval boundary (just after its
// own resetIntervalState) that leaves s exactly as restoring src's
// Snapshot would. s and src must be built from the same Config and
// workload. Once s is warm it allocates nothing. It fails when a
// component of s has no copy method (a stream, the L4 or its policy);
// s is then unspecified, as after a failed restore.
func (s *System) copyFunctionalFrom(src *System) error {
	for i, c := range s.cores {
		if err := c.CopyFunctionalFrom(src.cores[i]); err != nil {
			return err
		}
	}
	l4, ok := s.l4.(l4Copier)
	if !ok {
		return fmt.Errorf("sim: L4 backend %T does not support copying", s.l4)
	}
	if err := l4.CopyFrom(src.l4); err != nil {
		return err
	}
	if err := s.vmsys.CopyFrom(src.vmsys); err != nil {
		return err
	}
	if s.cfg.FullHierarchy {
		if err := s.l3.CopyFrom(src.l3); err != nil {
			return err
		}
		for i, h := range s.hiers {
			if err := h.CopyFrom(src.hiers[i]); err != nil {
				return err
			}
		}
	}
	s.resetIntervalState()
	return nil
}

// freeList recycles what a sampled run hands from goroutine to
// goroutine: the boundary holders of a run that forks in memory (Systems
// that carry one boundary's functional state from the spine to a
// worker, and the last committed one to finishSampled), and the entry
// buffers a run with a spine lattice reads its probes into. The spine
// takes values; workers return cancelled ones and the committer
// discarded and superseded ones, so the list is shared by goroutines.
// The speculation depth bounds how many are ever in use.
type freeList[T any] struct {
	build func() T

	mu   sync.Mutex
	free []T
}

// forkPlan returns the run's lattice and its pool of boundary holders.
// Whether a boundary reaches the workers as an in-memory copy depends on
// the system alone, with or without a lattice: the spine copies every
// boundary it computes into a holder from the pool, snapshots a boundary
// only to save it, and hands the workers a snapshot blob instead when
// the pool is nil (an L4 without a copy method) or the run's first copy,
// its trial, fails (a stream or policy without one). The pool builds
// nothing until the spine first asks, so a fully warm resume, which
// computes no boundary, builds no holder.
//
// The lattice needs snapshots, so a system that cannot take them runs
// without it and must copy: its trial copy runs here, before any work,
// and a system that can neither copy nor snapshot its state panics
// naming the components that failed both trials.
func (s *System) forkPlan(wlName string) (*spineLattice, *freeList[*System]) {
	pool := s.holderPool()
	snapErr := s.writeState(ckpt.NewMeasurer(), s.WarmFingerprint(wlName))
	if snapErr == nil {
		return s.openSpineLattice(wlName), pool
	}
	copyErr := fmt.Errorf("sim: L4 backend %T does not support copying", s.l4)
	if pool != nil {
		h := pool.get()
		if copyErr = h.copyFunctionalFrom(s); copyErr == nil {
			pool.put(h)
			return nil, pool
		}
	}
	panic(fmt.Sprintf("sim: sampled run cannot fork its intervals: copy: %v; snapshot: %v", copyErr, snapErr))
}

// holderPool returns an empty pool of boundary holders, or nil when the
// L4 cannot copy itself, so that a run that can never copy builds no
// holder.
func (s *System) holderPool() *freeList[*System] {
	if _, ok := s.l4.(l4Copier); !ok {
		return nil
	}
	cfg, wl := s.cfg, s.wl
	return &freeList[*System]{build: func() *System { return newHolder(cfg, wl) }}
}

// newHolder builds a boundary holder; a test counts its calls.
var newHolder = New

// get returns a free value, building one when none is free (always,
// under the forceFreshForkSystems test hook).
func (p *freeList[T]) get() T {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 || forceFreshForkSystems {
		p.mu.Unlock()
		return p.build()
	}
	v := p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()
	return v
}

// put returns a value nothing reads any more.
func (p *freeList[T]) put(v T) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}
