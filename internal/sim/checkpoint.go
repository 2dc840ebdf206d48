package sim

import (
	"fmt"
	"path/filepath"

	"accord/internal/ckpt"
	"accord/internal/cpu"
	"accord/internal/dram"
)

// snapshotMagic opens every warm-state snapshot blob.
const snapshotMagic = "ACRDSNAP"

// SnapshotSchema is the warm-state snapshot format version. Bump it
// whenever ANY component encoding changes — it participates in both the
// checkpoint key (through WarmFingerprint) and the blob header, so stale
// checkpoints are invalidated twice over (the key no longer matches, and
// a blob reached through a collision is rejected on decode).
//
// Schema 2: workload generator snapshots gained the event count
// (generatorVersion 2), making them interchangeable with trace-cache
// replay cursors.
//
// Schema 3: the warm fingerprint gained the L4 backend name (the
// pluggable-organization registry), so keys from schema 2 stores can
// never alias the new format.
const SnapshotSchema = 3

// SnapshotSchemaID returns a stable identifier for the snapshot schema.
// It opens every warm fingerprint, so its text is part of the snapshot
// bytes; CheckpointFormatID extends it for cache keys.
func SnapshotSchemaID() string {
	return fmt.Sprintf("accord-ckpt-v%d", SnapshotSchema)
}

// CheckpointFormatID names every version a checkpoint directory's
// contents depend on: the snapshot schema, the lattice entry format and
// the spine keying protocol. CI keys its cached directories on it, so a
// change to any of the three starts an empty cache instead of restoring
// a stale one that every run would then miss.
func CheckpointFormatID() string {
	return fmt.Sprintf("%s-lattice%d-spine%d", SnapshotSchemaID(), ckpt.LatticeSchema, spineLatticeVersion)
}

// checkpointDir is the subdirectory of SpineCheckpointDir named by
// CheckpointFormatID that holds this format's entries, or "" without a
// checkpoint directory. A format bump therefore starts an empty sibling,
// and the old format's entries stay where they are, unread.
func (c Config) checkpointDir() string {
	if c.SpineCheckpointDir == "" {
		return ""
	}
	return filepath.Join(c.SpineCheckpointDir, CheckpointFormatID())
}

// AppendStateFields appends to b, as |-separated label=value pairs in a
// fixed order, every Config field that shapes the simulated state up to
// the warmup/measure boundary. It is the one list every key is built
// from: WarmFingerprint (and SpineFingerprint through it) on its own,
// exp's memo key with the measured-phase fields added. It appends
// instead of returning a string because the memo key is built on every
// lookup, and appending to a caller's stack buffer spares each lookup
// the key's own allocation.
// The fields it leaves out cannot change the warm state:
//   - Name: a label; two configs that differ only in Name warm
//     identically and share a checkpoint.
//   - MeasureInstr: consumed strictly after the boundary.
//   - EpochInstr: epoch sampling is passive and starts at the boundary.
//   - Sampling: changes only how the measured phase runs, so a sampled
//     and an exact run share the warm state (SpineFingerprint adds the
//     interval geometry).
//   - SampleWorkers, SpineCheckpointDir, SpineStride: execution strategy.
//   - Policy: a function; its identity enters WarmFingerprint through the
//     L4's Name and StorageBytes.
//
// The test over Config's fields fails for a new field that is neither
// listed here nor excluded with its reason.
//
// The list also names the fixed machine every Config runs on: the core
// parameters and clock, the NVM capacity and the two devices. They were
// Config fields once; their text stays so that fingerprints, and the
// checkpoints keyed by them, keep their bytes.
func (c Config) AppendStateFields(b []byte) []byte {
	return fmt.Appendf(b, "backend=%s|cores=%d|%sscale=%d|l4cap=%d|ways=%d|lookup=%d|lru=%t|ca=%t|hier=%t|"+
		"%sanchor=%d|%swarm=%d|noadapt=%t|seed=%d",
		c.BackendName(), c.Cores, machineCore,
		c.Scale, c.L4CapacityFull, c.Ways, c.Lookup, c.LRUReplacement, c.BackendName() == "ca",
		c.FullHierarchy, machineNVM, c.WorkloadAnchorLines,
		machineDevices, c.WarmupInstr, c.DisableAdaptiveBudgets, c.Seed)
}

// machineCore, machineNVM and machineDevices are AppendStateFields' text
// for the fixed machine, formatted once: the devices' %+v alone would
// otherwise cost every memo-key lookup most of its time.
var (
	machineCore = func() string {
		p := cpu.DefaultParams()
		return fmt.Sprintf("iw=%d|mshrs=%d|ghz=%g|sram=%d|", p.IssueWidth, p.MSHRs, cpu.ClockGHz, p.SRAMLat)
	}()
	machineNVM     = fmt.Sprintf("nvmcap=%d|", NVMCapacityFull)
	machineDevices = fmt.Sprintf("hbm=%+v|pcm=%+v|", dram.HBM(), dram.PCM())
)

// WarmFingerprint describes everything that determines the system state
// at the warmup/measure boundary: the schema, the workload, the L4
// organization (Name plus StorageBytes, which captures table-size
// sweeps that share a name), and Config.AppendStateFields.
func (s *System) WarmFingerprint(wlName string) string {
	var buf [1024]byte
	b := fmt.Appendf(buf[:0], "%s|wl=%s|l4=%s/%d|", SnapshotSchemaID(), wlName, s.l4.Name(), s.l4.StorageBytes())
	return string(s.cfg.AppendStateFields(b))
}

// Snapshot serializes the complete state of the system: every
// component a measured run reads or mutates. It is taken at one of two
// kinds of boundary: the warmup/measure boundary of an exact run (after
// RunWarmup, before RunMeasure), or a sampled run's interval boundary,
// right after resetIntervalState, where the core clocks, MSHRs, window
// marks and DRAM timing and statistics it records are all zero. The
// embedded fingerprint documents the configuration the state belongs to
// and is re-verified on Restore.
//
// The blob is encoded into a buffer sized to hold it, so every blob is a
// single allocation. The size comes from the previous blob plus slack
// for growth of the variable-length sections (page-table leaves, policy
// region tables, DRAM busy intervals) since then; a system's first blob
// is sized by a measuring pass over the same sections instead. A buffer
// regrown from a fixed hint would leave outgrown copies for the
// collector, and where the next large allocation lands would then depend
// on when it freed them: the process's peak memory would vary from run
// to run.
func (s *System) Snapshot(wlName string) ([]byte, error) {
	fp := s.WarmFingerprint(wlName)
	size := s.snapLen + s.snapLen/64
	if s.snapLen == 0 {
		m := ckpt.NewMeasurer()
		if err := s.writeState(m, fp); err != nil {
			return nil, err
		}
		m.Finish()
		size = m.Len()
	}
	e := ckpt.NewEncoder(size)
	if err := s.writeState(e, fp); err != nil {
		return nil, err
	}
	blob := e.Finish()
	s.snapLen = len(blob)
	return blob, nil
}

// writeState writes every section of a snapshot blob but the CRC: the
// header with fingerprint fp, then the components.
func (s *System) writeState(e *ckpt.Encoder, fp string) error {
	e.Raw([]byte(snapshotMagic))
	e.U32(SnapshotSchema)
	e.String(fp)
	s.vmsys.Snapshot(e)
	// Snapshot is part of the backend contract, but it may still fail —
	// an nway cache whose policy lacks checkpoint support cannot be
	// serialized — and the caller falls back to a cold run.
	if err := s.l4.Snapshot(e); err != nil {
		return err
	}
	s.hbm.Snapshot(e)
	s.pcm.Snapshot(e)
	e.U32(uint32(len(s.cores)))
	for _, c := range s.cores {
		if err := c.Snapshot(e); err != nil {
			return err
		}
	}
	e.Bool(s.cfg.FullHierarchy)
	if s.cfg.FullHierarchy {
		s.l3.Snapshot(e)
		for _, h := range s.hiers {
			h.Snapshot(e)
		}
	}
	return nil
}

// Restore loads a snapshot into a system built from the same Config and
// workload: a freshly constructed one (an exact run's warm state), or
// any earlier state of one (a sampled run's forks and spine, which
// restore interval boundaries over whatever they held). On error the
// system is left in an unspecified state and must be discarded; the
// caller falls back to a cold run. Adversarial input cannot panic: every
// length is bounded and every section validates its shape against the
// constructed system. It checks the CRC frame, then decodes the rest
// with restore.
func (s *System) Restore(blob []byte, wlName string) error {
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		return err
	}
	return s.restore(d, wlName)
}

// restore is Restore after the CRC check, for a blob whose checksum has
// already been verified in this run: a lattice hit (ckpt.Lattice.Load
// checks it), or a blob a worker has restored through Restore. It
// mirrors writeState: the header against this system's fingerprint, then
// the components.
func (s *System) restore(d *ckpt.Decoder, wlName string) error {
	readHeader(d, s.WarmFingerprint(wlName))
	if err := d.Err(); err != nil {
		return err
	}
	if err := s.vmsys.Restore(d); err != nil {
		return err
	}
	if err := s.l4.Restore(d); err != nil {
		return err
	}
	if err := s.hbm.Restore(d); err != nil {
		return err
	}
	if err := s.pcm.Restore(d); err != nil {
		return err
	}
	if n := d.U32(); d.Err() == nil && int(n) != len(s.cores) {
		d.Failf("sim: snapshot has %d cores, system has %d", n, len(s.cores))
	}
	if err := d.Err(); err != nil {
		return err
	}
	for _, c := range s.cores {
		if err := c.Restore(d); err != nil {
			return err
		}
	}
	if hier := d.Bool(); d.Err() == nil && hier != s.cfg.FullHierarchy {
		d.Failf("sim: snapshot hierarchy=%t, config hierarchy=%t", hier, s.cfg.FullHierarchy)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if s.cfg.FullHierarchy {
		if err := s.l3.Restore(d); err != nil {
			return err
		}
		for _, h := range s.hiers {
			if err := h.Restore(d); err != nil {
				return err
			}
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("sim: %d trailing bytes after snapshot", d.Remaining())
	}
	return nil
}

// readHeader reads a snapshot's header, the magic, schema and embedded
// fingerprint writeState wrote, and fails d unless they are this
// format's and fp.
func readHeader(d *ckpt.Decoder, fp string) {
	if magic := d.Raw(len(snapshotMagic)); d.Err() == nil && string(magic) != snapshotMagic {
		d.Failf("sim: bad snapshot magic %q", magic)
	}
	if schema := d.U32(); d.Err() == nil && schema != SnapshotSchema {
		d.Failf("sim: snapshot schema %d, want %d", schema, SnapshotSchema)
	}
	if got := d.String(); d.Err() == nil && got != fp {
		d.Failf("sim: snapshot fingerprint mismatch:\n  have %s\n  want %s", got, fp)
	}
}

// runExact is Run's exact path. With Config.SpineCheckpointDir set, the
// warm state is boundary 0 of a one-entry ckpt.Lattice keyed by
// WarmFingerprint, in the directory's format subdirectory: the same entry
// format and echo checks as a sampled run's spine boundaries, the
// snapshot's checksum verified by the load.
// A hit restores it and skips warmup; a miss warms up cold and saves it.
// Any checkpoint problem (a damaged entry, a foreign or stale one, a
// policy that cannot snapshot, an unusable directory) degrades to a cold
// run, which re-saves; a restore that fails midway rebuilds the system
// first. SampleWork reports the probe as one lattice hit or one miss.
func (s *System) runExact(wlName string) Result {
	// OpenLattice rejects an empty directory, so a run without one starts
	// here.
	lat, err := ckpt.OpenLattice(s.cfg.checkpointDir(), s.WarmFingerprint(wlName))
	if err != nil {
		s.RunWarmup()
		return s.RunMeasure(wlName)
	}
	if blob, ok, err := lat.Load(0, nil); err == nil && ok {
		if s.restore(ckpt.NewDecoderVerified(blob), wlName) == nil {
			s.work.LatticeHits = 1
			return s.RunMeasure(wlName)
		}
		s.assemble(s.cfg, s.wl)
	}
	s.work.LatticeMisses = 1
	s.RunWarmup()
	if blob, err := s.Snapshot(wlName); err == nil {
		// Best-effort: a full disk or read-only directory must not fail the
		// run.
		_ = lat.SaveEntry(0, blob)
	}
	return s.RunMeasure(wlName)
}

// Cores exposes the assembled cores for tests.
func (s *System) Cores() []*cpu.Core { return s.cores }
