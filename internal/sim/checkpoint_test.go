package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"accord/internal/ckpt"
	"accord/internal/workloads"
)

// ckptCases covers the config families the checkpoint layer must
// round-trip bit-identically: direct-mapped, ACCORD set-associative,
// column-associative, the full SRAM hierarchy, and the pluggable
// organizations (Banshee, Gemini, TDRAM).
func ckptCases() []Config {
	shrink := func(cfg Config) Config {
		cfg.Scale = 8192
		cfg.Cores = 4
		cfg.WarmupInstr = 40_000
		cfg.MeasureInstr = 40_000
		cfg.EpochInstr = 10_000
		cfg.Seed = 1
		return cfg
	}
	full := ACCORD(2)
	full.Name = "accord-hier"
	full.FullHierarchy = true
	return []Config{
		shrink(DirectMapped()),
		shrink(ACCORD(2)),
		shrink(CACache()),
		shrink(full),
		shrink(Banshee()),
		shrink(Gemini()),
		shrink(TDRAM(2)),
	}
}

// resultFingerprint renders a Result (including the metrics bundle) to
// canonical JSON so "byte-identical" is checked literally.
func resultFingerprint(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Result
		Final  any
		Series any
	}{Result: r, Final: r.Metrics.Final, Series: r.Metrics.Series})
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// TestSnapshotResumeBitIdentical is the differential test: an
// uninterrupted run, a snapshot-then-resume on the same instance, and a
// restore into a fresh instance must all produce byte-identical results.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	const wlName = "libquantum"
	for _, cfg := range ckptCases() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			wl := workloads.MustGet(wlName, cfg.Cores)

			cold := New(cfg, wl).Run(wlName)

			warm := New(cfg, wl)
			warm.RunWarmup()
			blob, err := warm.Snapshot(wlName)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			resumed := warm.RunMeasure(wlName)

			restoredSys := New(cfg, wl)
			if err := restoredSys.Restore(blob, wlName); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			restored := restoredSys.RunMeasure(wlName)

			coldFP := resultFingerprint(t, cold)
			if got := resultFingerprint(t, resumed); got != coldFP {
				t.Errorf("snapshot-then-resume diverged from cold run:\n cold %s\n warm %s", coldFP, got)
			}
			if got := resultFingerprint(t, restored); got != coldFP {
				t.Errorf("restore-into-fresh diverged from cold run:\n cold %s\n rest %s", coldFP, got)
			}
		})
	}
}

// storeRun runs cfg on wl through Run with dir as the checkpoint
// directory, returning the result and the run's checkpoint probe.
func storeRun(cfg Config, wl workloads.Workload, dir, wlName string) (Result, SampleWork) {
	cfg.SpineCheckpointDir = dir
	s := New(cfg, wl)
	res := s.Run(wlName)
	return res, s.SampleWork()
}

// warmEntryKey is the entry key of cfg's exact warm-state entry:
// boundary 0 of the one-entry lattice keyed by WarmFingerprint.
func warmEntryKey(cfg Config, wl workloads.Workload, wlName string) string {
	return ckpt.LatticeEntryKey(New(cfg, wl).WarmFingerprint(wlName), 0)
}

// formatDir is the subdirectory of checkpoint directory dir that holds
// this format's entries.
func formatDir(dir string) string { return filepath.Join(dir, CheckpointFormatID()) }

// TestCheckpointFormatIDNamesEveryVersion: CI keys its cached checkpoint
// directories on CheckpointFormatID, so it must move with the snapshot
// schema, the lattice entry format and the spine keying version alike.
func TestCheckpointFormatIDNamesEveryVersion(t *testing.T) {
	id := CheckpointFormatID()
	if !strings.HasPrefix(id, SnapshotSchemaID()+"-") {
		t.Errorf("format ID %q does not extend the snapshot schema ID %q", id, SnapshotSchemaID())
	}
	fields := strings.Split(id, "-")
	for _, want := range []string{
		fmt.Sprintf("v%d", SnapshotSchema),
		fmt.Sprintf("lattice%d", ckpt.LatticeSchema),
		fmt.Sprintf("spine%d", spineLatticeVersion),
	} {
		if !slices.Contains(fields, want) {
			t.Errorf("format ID %q does not name %s", id, want)
		}
	}
}

// TestRunWithStoreBitIdentical exercises the full store path: the first
// run populates the checkpoint directory cold, the second restores, and
// both results — and a no-store baseline — are byte-identical.
func TestRunWithStoreBitIdentical(t *testing.T) {
	const wlName = "milc"
	for _, cfg := range ckptCases() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			wl := workloads.MustGet(wlName, cfg.Cores)
			dir := t.TempDir()
			base := New(cfg, wl).Run(wlName)
			first, work := storeRun(cfg, wl, dir, wlName)
			if work.LatticeHits != 0 || work.LatticeMisses != 1 {
				t.Fatalf("first run probed %+v, want one miss in an empty directory", work)
			}
			second, work := storeRun(cfg, wl, dir, wlName)
			if work.LatticeHits != 1 || work.LatticeMisses != 0 {
				t.Fatalf("second run probed %+v, want one hit in the populated directory", work)
			}
			baseFP := resultFingerprint(t, base)
			if got := resultFingerprint(t, first); got != baseFP {
				t.Errorf("store-populating run diverged from no-store run")
			}
			if got := resultFingerprint(t, second); got != baseFP {
				t.Errorf("restored run diverged from no-store run:\n cold %s\n warm %s", baseFP, got)
			}
		})
	}
}

// TestStateFieldsCoverConfig holds every Config field to one of two
// places: AppendStateFields, or the exclusion list below with its
// reason. A field is in the list when changing it changes the list; a
// new field that changes results but is in neither place fails here
// instead of sharing a checkpoint or a memo entry by accident.
func TestStateFieldsCoverConfig(t *testing.T) {
	excluded := map[string]string{
		"Name":               "a label: configs differing only in Name warm identically (exp's memo key adds it)",
		"MeasureInstr":       "consumed after the warmup/measure boundary (exp's memo key adds it)",
		"EpochInstr":         "passive sampling from the boundary on (exp's memo key adds it)",
		"Sampling":           "shapes the measured phase only (SpineFingerprint adds the geometry, exp's memo key all of it)",
		"SampleWorkers":      "execution strategy: results are identical at any worker count",
		"SpineCheckpointDir": "execution strategy: where state persists, not what it is",
		"SpineStride":        "execution strategy: which boundaries persist, not what they hold",
		"Policy":             "a function: its identity enters WarmFingerprint through the L4's Name and StorageBytes",
	}
	base := ckptCases()[1] // ACCORD 2-way
	ref := string(base.AppendStateFields(nil))
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		cfg := base
		if !perturb(reflect.ValueOf(&cfg).Elem().Field(i)) {
			t.Errorf("Config.%s: no perturbation for kind %s; extend perturb", f.Name, f.Type.Kind())
			continue
		}
		listed := string(cfg.AppendStateFields(nil)) != ref
		reason, isExcluded := excluded[f.Name]
		switch {
		case listed && isExcluded:
			t.Errorf("Config.%s changes AppendStateFields but is excluded (%s)", f.Name, reason)
		case !listed && !isExcluded:
			t.Errorf("Config.%s is neither in AppendStateFields nor excluded with a reason", f.Name)
		}
		delete(excluded, f.Name)
	}
	for name := range excluded {
		t.Errorf("exclusion %q names no Config field", name)
	}
}

// perturb changes v to a different value of its type, reporting false
// for a kind it does not handle. A struct changes in its first field.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			panic("perturbed function called")
		}))
	case reflect.Struct:
		return v.NumField() > 0 && perturb(v.Field(0))
	default:
		return false
	}
	return true
}

// TestWarmKeyExclusions verifies the warm entry's key ignores exactly the
// fields that cannot affect warm state, and changes with ones that can.
func TestWarmKeyExclusions(t *testing.T) {
	base := ckptCases()[1] // ACCORD 2-way
	wl := workloads.MustGet("libquantum", base.Cores)
	key := func(cfg Config) string { return warmEntryKey(cfg, wl, "libquantum") }
	k0 := key(base)

	renamed := base
	renamed.Name = "renamed"
	if key(renamed) != k0 {
		t.Error("Name changed the warm key; it is a label and must not")
	}
	measure := base
	measure.MeasureInstr *= 2
	if key(measure) != k0 {
		t.Error("MeasureInstr changed the warm key; it is consumed after the boundary")
	}
	epoch := base
	epoch.EpochInstr = 0
	if key(epoch) != k0 {
		t.Error("EpochInstr changed the warm key; sampling starts at the boundary")
	}

	for name, mutate := range map[string]func(*Config){
		"Seed":          func(c *Config) { c.Seed = 7 },
		"WarmupInstr":   func(c *Config) { c.WarmupInstr *= 2 },
		"Scale":         func(c *Config) { c.Scale *= 2 },
		"FullHierarchy": func(c *Config) { c.FullHierarchy = true },
	} {
		cfg := base
		mutate(&cfg)
		if key(cfg) == k0 {
			t.Errorf("%s did not change the warm key; it affects warm state", name)
		}
	}

	if key(ckptCases()[0]) == k0 || key(ckptCases()[2]) == k0 {
		t.Error("different organizations share a warm key")
	}
}

// TestWarmKeyDistinguishesTableSizes pins the reason StorageBytes is in
// the fingerprint: RIT/RLT size sweeps share a policy name.
func TestWarmKeyDistinguishesTableSizes(t *testing.T) {
	shrink := func(cfg Config) Config {
		cfg.Scale = 8192
		cfg.Cores = 4
		return cfg
	}
	a := shrink(ACCORDWithTables(32))
	b := shrink(ACCORDWithTables(64))
	a.Name, b.Name = "same", "same"
	wl := workloads.MustGet("libquantum", a.Cores)
	if warmEntryKey(a, wl, "libquantum") == warmEntryKey(b, wl, "libquantum") {
		t.Error("different GWS table sizes share a warm key")
	}
}

// TestRestoreRejectsAdversarialInput feeds truncations and random
// corruptions of a real snapshot to Restore: every one must fail with an
// error (or be a byte-identical fluke, impossible past the checksum) and
// none may panic.
func TestRestoreRejectsAdversarialInput(t *testing.T) {
	cfg := ckptCases()[1]
	wl := workloads.MustGet("libquantum", cfg.Cores)
	s := New(cfg, wl)
	s.RunWarmup()
	blob, err := s.Snapshot("libquantum")
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every length (stride keeps the test fast; edges and
	// a dense prefix are covered exactly).
	for n := 0; n < len(blob); n += 1 + n/64 {
		tr := blob[:n]
		fresh := New(cfg, wl)
		if err := fresh.Restore(tr, "libquantum"); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(blob))
		}
	}

	// Random single-byte corruptions: the CRC catches all of them.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 64; trial++ {
		c := append([]byte(nil), blob...)
		c[rng.Intn(len(c))] ^= byte(1 + rng.Intn(255))
		fresh := New(cfg, wl)
		if err := fresh.Restore(c, "libquantum"); err == nil {
			t.Fatalf("trial %d: corrupted snapshot accepted", trial)
		}
	}

	// A valid snapshot for a different config/workload must be rejected
	// by the fingerprint even though the checksum passes.
	other := New(cfg, workloads.MustGet("milc", cfg.Cores))
	if err := other.Restore(blob, "milc"); err == nil {
		t.Fatal("snapshot for libquantum accepted by a milc system")
	}

	// Sanity: the pristine blob still restores.
	fresh := New(cfg, wl)
	if err := fresh.Restore(blob, "libquantum"); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// TestRestoreRejectsTrailingBytes guards the strict end-of-blob check.
func TestRestoreRejectsTrailingBytes(t *testing.T) {
	cfg := ckptCases()[0]
	wl := workloads.MustGet("libquantum", cfg.Cores)
	s := New(cfg, wl)
	s.RunWarmup()
	blob, err := s.Snapshot("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	// Re-wrap the payload with junk appended before the checksum.
	payload := blob[:len(blob)-4]
	e := ckpt.NewEncoder(len(blob) + 8)
	e.Raw(payload)
	e.U64(0xDEAD)
	fresh := New(cfg, wl)
	if err := fresh.Restore(e.Finish(), "libquantum"); err == nil {
		t.Fatal("snapshot with trailing bytes accepted")
	}
}

// TestCheckpointDirKeepsOldLayout: entries live in the checkpoint
// directory's format subdirectory, so an entry at the top level, where
// directories written before the subdirectory existed hold theirs, is
// neither read nor removed. The first run misses and saves in the
// subdirectory, the next restores, and both match a run without a
// directory.
func TestCheckpointDirKeepsOldLayout(t *testing.T) {
	const wlName = "libquantum"
	cfg := ckptCases()[0]
	wl := workloads.MustGet(wlName, cfg.Cores)
	dir := t.TempDir()
	storeRun(cfg, wl, dir, wlName)
	name := warmEntryKey(cfg, wl, wlName) + ".ckpt"
	old := filepath.Join(dir, name)
	if err := os.Rename(filepath.Join(formatDir(dir), name), old); err != nil {
		t.Fatal(err)
	}

	want := New(cfg, wl).Run(wlName)
	for i, probe := range []SampleWork{{LatticeMisses: 1}, {LatticeHits: 1}} {
		got, work := storeRun(cfg, wl, dir, wlName)
		if work.LatticeHits != probe.LatticeHits || work.LatticeMisses != probe.LatticeMisses {
			t.Errorf("run %d over the old layout probed %+v, want %+v", i, work, probe)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d over the old layout diverged from plain Run", i)
		}
	}
	if _, err := os.Stat(old); err != nil {
		t.Errorf("the old layout's entry is gone: %v", err)
	}
}

// TestRunWithStoreCorruptFallsBackCold damages the stored warm entry
// every way the checkpoint layer must survive. Each time the next run
// must reject the entry, fall back to a cold run with the identical
// result, and re-save a good entry that the run after it restores.
func TestRunWithStoreCorruptFallsBackCold(t *testing.T) {
	const wlName = "libquantum"
	cfg := ckptCases()[1]
	wl := workloads.MustGet(wlName, cfg.Cores)
	base := New(cfg, wl).Run(wlName)
	key := warmEntryKey(cfg, wl, wlName)
	fp := New(cfg, wl).WarmFingerprint(wlName)

	// relabel saves payload as an entry echoing (fp, interval) and moves
	// it under this config's warm key.
	relabel := func(t *testing.T, dir, fp string, interval int, payload []byte) {
		lat, err := ckpt.OpenLattice(formatDir(dir), fp)
		if err != nil {
			t.Fatal(err)
		}
		if err := lat.SaveEntry(interval, payload); err != nil {
			t.Fatal(err)
		}
		from := filepath.Join(formatDir(dir), ckpt.LatticeEntryKey(fp, interval)+".ckpt")
		if err := os.Rename(from, filepath.Join(formatDir(dir), key+".ckpt")); err != nil {
			t.Fatal(err)
		}
	}
	// snapshot is this config's warm-state blob.
	snapshot := func(t *testing.T) []byte {
		s := New(cfg, wl)
		s.RunWarmup()
		blob, err := s.Snapshot(wlName)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	other := func(t *testing.T) (string, []byte) {
		wlOther := workloads.MustGet("milc", cfg.Cores)
		s := New(cfg, wlOther)
		s.RunWarmup()
		blob, err := s.Snapshot("milc")
		if err != nil {
			t.Fatal(err)
		}
		return s.WarmFingerprint("milc"), blob
	}

	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, entry []byte) []byte // nil result: leave the file
	}{
		{"truncated", func(t *testing.T, _ string, b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(t *testing.T, _ string, b []byte) []byte {
			b[len(b)/2] ^= 0x10
			return b
		}},
		{"foreign-fingerprint", func(t *testing.T, dir string, _ []byte) []byte {
			ofp, oblob := other(t)
			relabel(t, dir, ofp, 0, oblob)
			return nil
		}},
		{"interval-echo", func(t *testing.T, dir string, _ []byte) []byte {
			relabel(t, dir, fp, 1, snapshot(t))
			return nil
		}},
		{"restore-fails", func(t *testing.T, dir string, _ []byte) []byte {
			// Drop the snapshot's tail and re-frame it: the CRC and the
			// header pass, and the last component's Restore runs short.
			blob := snapshot(t)
			e := ckpt.NewEncoder(len(blob))
			e.Raw(blob[:len(blob)-4-16])
			relabel(t, dir, fp, 0, e.Finish())
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, work := storeRun(cfg, wl, dir, wlName); work.LatticeMisses != 1 {
				t.Fatalf("populating run probed %+v, want one miss", work)
			}
			path := filepath.Join(formatDir(dir), key+".ckpt")
			entry, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("warm entry missing: %v", err)
			}
			if damaged := tc.damage(t, dir, entry); damaged != nil {
				if err := os.WriteFile(path, damaged, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			got, work := storeRun(cfg, wl, dir, wlName)
			if work.LatticeHits != 0 || work.LatticeMisses != 1 {
				t.Errorf("damaged entry probed %+v, want one miss", work)
			}
			if !reflect.DeepEqual(base, got) {
				t.Error("cold fallback after damage diverged from the no-store run")
			}
			again, work := storeRun(cfg, wl, dir, wlName)
			if work.LatticeHits != 1 {
				t.Errorf("entry was not re-saved after the fallback: probe %+v", work)
			}
			if !reflect.DeepEqual(base, again) {
				t.Error("restored run after the re-save diverged")
			}
		})
	}
}
