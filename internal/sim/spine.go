package sim

import (
	"fmt"
	"time"

	"accord/internal/ckpt"
)

// Spine checkpoint lattice (DESIGN.md §14): RunSampled memoizes the
// functional fast-forward by persisting the spine's boundary snapshots
// into a ckpt.Lattice and probing it on later runs. A hit replaces the
// functional advance to that boundary with a restore; a fully-populated
// lattice reduces the spine to lattice lookups, so a warm re-run is
// bounded by the detailed windows on the worker pool instead of the
// sequential spine (§12.3's Amdahl term).
//
// The lattice is keyed by SpineFingerprint — warm-fingerprint fields
// plus the interval geometry — so it is shared by every run that walks
// the same functional trajectory and unreachable by any run that does
// not: measurement-only knobs (MeasureInstr, TargetCI, SampleWorkers)
// are deliberately excluded, while a geometry change moves every key (a
// stale lattice misses; it can never restore wrong state). Saves run on
// a background writer goroutine overlapped with worker execution, so
// populating the lattice costs a cold run almost no wall-clock.

// spineLatticeVersion versions the spine keying protocol itself (what
// the fingerprint covers and which boundaries it names). Bump it
// alongside incompatible driver changes; SnapshotSchema already covers
// payload encoding changes through WarmFingerprint, and
// ckpt.LatticeSchema the entry format.
//
// Version 2: multi-core spines interleave cores by funcRoundQuantum for
// every stream kind and hierarchy mode. Version 1 stepped one event per
// core per turn unless every stream was a trace-cache cursor on the flat
// hierarchy, so its lattices hold boundaries the spine no longer
// computes.
//
// Version 3: boundaries are stored as ordinary Snapshots taken after the
// interval reset. Version 2 stored a functional form without the DRAM
// devices and core timing, which Restore cannot read, so its entries
// must miss rather than reach the decoder.
const spineLatticeVersion = 3

// spineSaveGranule is the disk granule automatic stride sizing targets:
// with SpineStride 0, the stride is chosen so roughly one granule of
// snapshot bytes is saved per period, keeping lattice cost ~100 KB-
// granular whether boundaries serialize to 10 KB or 10 MB.
const spineSaveGranule = 128 << 10

// SpineFingerprint extends WarmFingerprint with everything else that
// determines the functional state at interval boundary k: the interval
// geometry (Period/WarmLen/DetailLen fix both the boundary positions
// and the multi-core advance-target sequence), the functional
// interleaving quantum, and the spine protocol version. Measurement
// knobs stay excluded so one lattice serves any MeasureInstr, TargetCI,
// or SampleWorkers setting.
func (s *System) SpineFingerprint(wlName string) string {
	sc := s.cfg.Sampling
	return fmt.Sprintf("%s|spine=v%d|period=%d|warmlen=%d|detaillen=%d|quantum=%d",
		s.WarmFingerprint(wlName), spineLatticeVersion,
		sc.Period, sc.WarmLen, sc.DetailLen, funcRoundQuantum)
}

// SpineKey returns the content-addressed entry key of interval boundary
// k's snapshot — SHA-256 over the spine fingerprint and the interval
// number. The fingerprint fixes every boundary's position (the warmup
// budget and the interval geometry), so the interval names it.
func (s *System) SpineKey(wlName string, interval int) string {
	return ckpt.LatticeEntryKey(s.SpineFingerprint(wlName), interval)
}

// validSnapshot reports whether blob, a payload ckpt.Lattice.Load has
// verified (the entry's header echo and the snapshot's own CRC), carries a
// snapshot header for fingerprint fp: magic, schema, and the embedded
// fingerprint. This is the probe-side gate that makes the lattice
// restore paths safe to run against live systems: with the load's
// checks, every adversarial failure mode (truncation, corruption, stale
// schema, wrong config) is rejected here and degrades to a cold miss. A
// blob that passes was produced by Snapshot on an identically
// fingerprinted system — the fingerprint covers everything that shapes
// the payload — so a subsequent restore failure is a forged-CRC scenario
// and treated as a programming-error panic, exactly like the post-trial
// snapshot panics.
func validSnapshot(blob []byte, fp string) bool {
	d := ckpt.NewDecoderVerified(blob)
	readHeader(d, fp)
	return d.Err() == nil
}

// spineSaveReq is one boundary snapshot queued for the background writer.
type spineSaveReq struct {
	interval int
	blob     []byte
}

// spineLattice is RunSampled's handle on the lattice: probe/save logic,
// stride resolution, hit/miss accounting, and the background writer.
// Probes and saves happen on the spine (one goroutine); only the writer
// runs concurrently, and it exclusively owns the entry writes.
type spineLattice struct {
	lat    *ckpt.Lattice
	warmFP string
	// stride saves every stride-th boundary. Config.SpineStride > 0 is
	// explicit; 0 resolves automatically from the first snapshot's size
	// (ceil(len/spineSaveGranule)) so huge full-scale blobs thin out and
	// small test blobs save densely.
	stride int

	hits   int
	misses int

	// bufs holds the entry buffers probes read into. A hit's buffer
	// travels with its interval and returns where a holder would (§12.1);
	// a miss returns it at once.
	bufs freeList[*[]byte]

	saves  chan spineSaveReq
	done   chan struct{}
	saveNS int64 // written by the writer; read after close()
}

// openSpineLattice opens the configured lattice for a sampled run, or
// returns nil (lattice disabled) when no directory is configured or it
// cannot be created — an unusable directory degrades to a plain cold
// run, never an error.
func (s *System) openSpineLattice(wlName string) *spineLattice {
	if s.cfg.SpineCheckpointDir == "" {
		return nil
	}
	lat, err := ckpt.OpenLattice(s.cfg.SpineCheckpointDir, s.SpineFingerprint(wlName))
	if err != nil {
		return nil
	}
	sl := &spineLattice{
		lat:    lat,
		warmFP: s.WarmFingerprint(wlName),
		stride: s.cfg.SpineStride,
		bufs:   freeList[*[]byte]{build: func() *[]byte { return new([]byte) }},
		saves:  make(chan spineSaveReq, 4),
		done:   make(chan struct{}),
	}
	go sl.writer()
	return sl
}

// probe looks boundary k up, reading it into an entry buffer from the
// free list, and returns its validated snapshot and that buffer on a
// hit; a miss returns the buffer to the list at once. It never reads
// into last, the buffer behind the spine's last loaded boundary: the
// stale protocol restores from it on the next miss, and the committer
// may already have returned it to the list. Every entry- or codec-level
// failure is a miss. A nil receiver (lattice disabled) always misses
// without counting, so the spine calls it unconditionally.
func (sl *spineLattice) probe(interval int, last *[]byte) ([]byte, *[]byte, bool) {
	if sl == nil {
		return nil, nil, false
	}
	buf := sl.bufs.get()
	if buf == last {
		other := sl.bufs.get()
		sl.bufs.put(buf)
		buf = other
	}
	payload, ok, err := sl.lat.Load(interval, buf)
	if ok && err == nil && validSnapshot(payload, sl.warmFP) {
		sl.resolveStride(len(payload))
		sl.hits++
		return payload, buf, true
	}
	sl.bufs.put(buf)
	sl.misses++
	return nil, nil, false
}

// resolveStride fixes the automatic stride from the first observed
// snapshot size.
func (sl *spineLattice) resolveStride(blobLen int) {
	if sl.stride > 0 {
		return
	}
	sl.stride = (blobLen + spineSaveGranule - 1) / spineSaveGranule
	if sl.stride < 1 {
		sl.stride = 1
	}
}

// saveAsync queues boundary k's snapshot for the background writer when
// the stride selects it. The blob is immutable once serialized (workers
// and the committer only read it), so the writer can share it. A full
// queue blocks the spine briefly rather than dropping entries — the
// queue depth bounds memory, and saves are far cheaper than the
// periods that produce them.
func (sl *spineLattice) saveAsync(interval int, blob []byte) {
	if sl == nil {
		return
	}
	sl.resolveStride(len(blob))
	if interval%sl.stride != 0 {
		return
	}
	sl.saves <- spineSaveReq{interval: interval, blob: blob}
}

// writer drains the save queue, persisting each boundary best-effort in
// one entry write: a full disk or read-only directory loses memoization,
// never the run.
func (sl *spineLattice) writer() {
	defer close(sl.done)
	for req := range sl.saves {
		t0 := time.Now()
		_ = sl.lat.SaveEntry(req.interval, req.blob)
		sl.saveNS += int64(time.Since(t0))
	}
}

// close drains and joins the background writer. The channel close
// happens-before the writer's done signal, so reading saveNS afterwards
// is race-free.
func (sl *spineLattice) close() {
	close(sl.saves)
	<-sl.done
}
