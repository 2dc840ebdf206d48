package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"accord/internal/dramcache"
	"accord/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/snapshot_digests.json (only for a deliberate SnapshotSchema bump)")

const digestFile = "testdata/snapshot_digests.json"

// digestOrgs are the organizations whose snapshot bytes are pinned: every
// registered backend, with the nway backend taken direct-mapped, with
// ACCORD's policy tables and with LRU stamps, so every array section of
// the format is covered; and the nway backend under every lookup mode and
// the MRU and partial-tag policies. The snapshots hold the detailed
// warmup's device timing state, so they pin each lookup's probe
// schedule, which no golden covers.
var digestOrgs = []string{
	"direct", "accord", "lru", "ca", "banshee", "gemini", "tdram",
	"parallel", "serial", "perfect", "idealized", "partialtag", "mru",
}

// snapshotDigests is the committed record: the schema the digests were
// taken under and the SHA-256 of each blob, keyed org/hierarchy/snapshot.
type snapshotDigests struct {
	Schema  int               `json:"schema"`
	Digests map[string]string `json:"digests"`
}

// TestSnapshotFormatDigests pins the checkpoint format byte for byte: the
// warm-state snapshot of every organization, flat and behind the full
// SRAM hierarchy, must hash to the digest recorded in testdata. A codec
// or tag-store change that alters a single byte fails here; a deliberate
// format change bumps SnapshotSchema and re-records with -update.
func TestSnapshotFormatDigests(t *testing.T) {
	const wlName = "libquantum"
	got := snapshotDigests{Schema: SnapshotSchema, Digests: map[string]string{}}
	covered := map[string]bool{}
	for _, org := range digestOrgs {
		for _, hier := range []bool{false, true} {
			cfg, err := Named(org, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scale = 8192
			cfg.Cores = 2
			cfg.WarmupInstr = 100_000
			cfg.MeasureInstr = 10_000
			cfg.DisableAdaptiveBudgets = true
			cfg.Seed = 1
			cfg.FullHierarchy = hier
			covered[cfg.BackendName()] = true

			s := New(cfg, workloads.MustGet(wlName, cfg.Cores))
			s.RunWarmup()
			key := fmt.Sprintf("%s/hier=%t/snapshot", org, hier)
			blob, err := s.Snapshot(wlName)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			// The system's first blob is sized by a measuring pass, which
			// must count every section exactly.
			if cap(blob) != len(blob) {
				t.Errorf("%s: measured capacity %d for a %d-byte blob", key, cap(blob), len(blob))
			}
			sum := sha256.Sum256(blob)
			got.Digests[key] = hex.EncodeToString(sum[:])
		}
	}
	for _, b := range dramcache.BackendNames() {
		if !covered[b] {
			t.Errorf("backend %q has no pinned snapshot digest; add an organization using it to digestOrgs", b)
		}
	}

	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("read %s (record with -update): %v", digestFile, err)
	}
	var want snapshotDigests
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", digestFile, err)
	}
	if want.Schema != SnapshotSchema {
		t.Fatalf("digests were recorded under schema %d, code is schema %d: re-record with -update after a deliberate bump",
			want.Schema, SnapshotSchema)
	}
	if reflect.DeepEqual(got.Digests, want.Digests) {
		return
	}
	for k, w := range want.Digests {
		if g, ok := got.Digests[k]; !ok {
			t.Errorf("%s: no longer produced", k)
		} else if g != w {
			t.Errorf("%s: digest %s, recorded %s: snapshot bytes changed without a schema bump", k, g, w)
		}
	}
	for k := range got.Digests {
		if _, ok := want.Digests[k]; !ok {
			t.Errorf("%s: not recorded in %s", k, digestFile)
		}
	}
}

// TestSnapshotsAllocateOneBuffer checks the snapshot allocation contract:
// every blob costs about one blob's worth of bytes, not the repeated
// regrowth of a buffer started from a fixed hint. A system's first blob
// is sized by a measuring pass, later ones from the blob before. Both are
// interval-boundary blobs, taken after the interval reset; the second is
// the boundary fork's steady state.
func TestSnapshotsAllocateOneBuffer(t *testing.T) {
	const wlName = "libquantum"
	cfg := ACCORD(2)
	cfg.Scale = 512
	cfg.Cores = 2
	cfg.WarmupInstr = 50_000
	cfg.MeasureInstr = 10_000
	cfg.DisableAdaptiveBudgets = true
	cfg.Seed = 1
	s := New(cfg, workloads.MustGet(wlName, cfg.Cores))
	s.RunWarmupFunctional()
	s.resetIntervalState()
	for _, step := range []string{"first Snapshot", "second Snapshot"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blob, err := s.Snapshot(wlName)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(len(blob)) * 5 / 4; alloc >= limit {
			t.Errorf("%s allocated %d bytes for a %d-byte blob (%.2fx), want under 1.25x",
				step, alloc, len(blob), float64(alloc)/float64(len(blob)))
		}
	}
}
