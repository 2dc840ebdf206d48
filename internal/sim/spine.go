package sim

import (
	"fmt"
	"time"

	"accord/internal/ckpt"
)

// Spine checkpoint lattice (DESIGN.md §14): RunSampled memoizes the
// functional fast-forward by saving the spine's boundary snapshots into a
// ckpt.Lattice and probing it on later runs. A hit replaces the
// functional advance to that boundary with a restore. By default the
// spine saves boundary 0 alone, the warm state after functional warmup,
// so a re-run skips warmup and computes the rest; Config.SpineStride N
// saves every Nth boundary, and a fully populated lattice reduces the
// spine to lattice lookups.
//
// The lattice is keyed by SpineFingerprint — warm-fingerprint fields
// plus the interval geometry — so it is shared by every run that walks
// the same functional trajectory and unreachable by any run that does
// not: measurement-only knobs (MeasureInstr, TargetCI, SampleWorkers)
// are deliberately excluded, while a geometry change moves every key (a
// stale lattice misses; it can never restore wrong state). The spine
// saves in line, as runExact saves an exact run's warm entry.

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

// spineLattice is RunSampled's handle on the lattice: probes, in-line
// saves and hit/miss accounting. Only the spine goroutine calls its
// methods; the committer and the workers return entry buffers to bufs.
type spineLattice struct {
	lat    *ckpt.Lattice
	warmFP string
	// stride saves every stride-th boundary (Config.SpineStride); zero
	// saves boundary 0 alone.
	stride int

	hits   int
	misses int
	saveNS int64

	// bufs holds the entry buffers probes read into. A hit's buffer
	// travels with its interval and returns where a holder would (§12.1);
	// a miss returns it at once.
	bufs freeList[*[]byte]
}

// openSpineLattice opens the configured lattice for a sampled run, or
// returns nil (lattice disabled) when no directory is configured or it
// cannot be created — an unusable directory degrades to a plain cold
// run, never an error.
func (s *System) openSpineLattice(wlName string) *spineLattice {
	lat, err := ckpt.OpenLattice(s.cfg.checkpointDir(), s.SpineFingerprint(wlName))
	if err != nil {
		return nil
	}
	return &spineLattice{
		lat:    lat,
		warmFP: s.WarmFingerprint(wlName),
		stride: s.cfg.SpineStride,
		bufs:   freeList[*[]byte]{build: func() *[]byte { return new([]byte) }},
	}
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
		sl.hits++
		return payload, buf, true
	}
	sl.bufs.put(buf)
	sl.misses++
	return nil, nil, false
}

// saves reports whether the spine saves boundary k: every stride-th one,
// or boundary 0 alone at stride 0. A nil receiver saves nothing.
func (sl *spineLattice) saves(interval int) bool {
	return sl != nil && (interval == 0 || sl.stride > 0 && interval%sl.stride == 0)
}

// save writes boundary k's snapshot in line, best-effort: a full disk or
// read-only directory loses memoization, never the run.
func (sl *spineLattice) save(interval int, blob []byte) {
	t0 := time.Now()
	_ = sl.lat.SaveEntry(interval, blob)
	sl.saveNS += int64(time.Since(t0))
}
