package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"accord/internal/core"
	"accord/internal/workloads"
)

// latticeCfg points cfg at a spine checkpoint lattice directory. Stride 1
// saves every boundary, so a re-run can hit every probe; the default
// (TestSpineLatticeDefaultSavesWarmBoundary) saves boundary 0 alone.
func latticeCfg(cfg Config, dir string) Config {
	cfg.SpineCheckpointDir = dir
	cfg.SpineStride = 1
	return cfg
}

// TestSpineLatticeResumedMatchesCold is the tentpole equivalence gate for
// the checkpoint lattice: for every L4 organization, single- and
// multi-core, with and without early stopping, a run that populates the
// lattice and a run that resumes from it must both reproduce the plain
// cold run exactly — same Result, same exported metrics JSON, and
// byte-identical final functional state — across worker counts (a lattice
// written at one worker count is read at another). Run under -race the
// suite also proves the entry-buffer hand-offs share no state they
// shouldn't.
func TestSpineLatticeResumedMatchesCold(t *testing.T) {
	const wlName = "libquantum"
	for _, cores := range []int{1, 2} {
		for _, earlyStop := range []bool{false, true} {
			for _, cfg := range parallelCases(cores, earlyStop) {
				cfg := cfg
				name := fmt.Sprintf("%s-%dc-stop=%t", cfg.Name, cores, earlyStop)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					wl := traceWorkload(wlName, cfg)
					dir := t.TempDir()

					coldRes, coldJS, coldState, coldWork := runSampledWorkers(t, cfg, wl, wlName, 2)
					if coldWork.LatticeHits != 0 || coldWork.LatticeMisses != 0 {
						t.Fatalf("no-lattice run counted lattice traffic: %+v", coldWork)
					}

					popRes, popJS, popState, popWork := runSampledWorkers(t, latticeCfg(cfg, dir), wl, wlName, 2)
					if !reflect.DeepEqual(coldRes, popRes) {
						t.Errorf("populating run Result diverged from cold\ncold sampled: %+v\npop sampled: %+v",
							coldRes.Sampled, popRes.Sampled)
					}
					if !bytes.Equal(coldJS, popJS) {
						t.Errorf("populating run metrics JSON diverged from cold")
					}
					if !bytes.Equal(coldState, popState) {
						t.Errorf("populating run final state diverged from cold (%d vs %d bytes)",
							len(coldState), len(popState))
					}
					if popWork.LatticeHits != 0 {
						t.Errorf("populating run hit an empty lattice: %+v", popWork)
					}
					if popWork.LatticeMisses == 0 {
						t.Errorf("populating run probed nothing: %+v", popWork)
					}

					for _, workers := range []int{1, 2, 3} {
						res, js, state, work := runSampledWorkers(t, latticeCfg(cfg, dir), wl, wlName, workers)
						if !reflect.DeepEqual(coldRes, res) {
							t.Errorf("workers=%d: resumed Result diverged from cold\ncold sampled: %+v\nwarm sampled: %+v",
								workers, coldRes.Sampled, res.Sampled)
						}
						if !bytes.Equal(coldJS, js) {
							t.Errorf("workers=%d: resumed metrics JSON diverged from cold", workers)
						}
						if !bytes.Equal(coldState, state) {
							t.Errorf("workers=%d: resumed final state diverged from cold (%d vs %d bytes)",
								workers, len(coldState), len(state))
						}
						if work.LatticeHits == 0 {
							t.Errorf("workers=%d: resumed run never hit the lattice: %+v", workers, work)
						}
						// Without early stopping the boundary set is fixed, so a
						// populated lattice must serve every probe. (Early-stopped
						// resumed spines can race past the boundaries the slower
						// populating spine reached before its stop — those probes
						// miss and fall back cold, which the equality checks above
						// prove is harmless.)
						if !earlyStop && work.LatticeMisses != 0 {
							t.Errorf("workers=%d: fully-populated lattice missed %d of %d probes",
								workers, work.LatticeMisses, work.LatticeHits+work.LatticeMisses)
						}
					}
				})
			}
		}
	}
}

// TestSpineLatticeMeasureKnobsExcluded pins the key-exclusion contract:
// MeasureInstr (and the other measurement-only knobs) are not part of the
// spine fingerprint, so a lattice populated by a long run serves a
// shorter run over the same trajectory — the shorter run's boundaries are
// a prefix of the longer run's.
func TestSpineLatticeMeasureKnobsExcluded(t *testing.T) {
	const wlName = "libquantum"
	long := parallelCases(2, false)[1] // accord-2way, 6 planned intervals
	short := long
	short.MeasureInstr = 150_000 // 3 planned intervals, same geometry
	wl := traceWorkload(wlName, long)
	dir := t.TempDir()

	runSampledWorkers(t, latticeCfg(long, dir), wl, wlName, 2)
	coldRes, coldJS, coldState, _ := runSampledWorkers(t, short, wl, wlName, 2)
	res, js, state, work := runSampledWorkers(t, latticeCfg(short, dir), wl, wlName, 2)
	if work.LatticeHits != 3 || work.LatticeMisses != 0 {
		t.Errorf("short resumed run hit %d / missed %d, want 3 prefix hits and 0 misses",
			work.LatticeHits, work.LatticeMisses)
	}
	if !reflect.DeepEqual(coldRes, res) || !bytes.Equal(coldJS, js) || !bytes.Equal(coldState, state) {
		t.Errorf("short run resumed from the long run's lattice diverged from its own cold run")
	}
}

// TestSpineLatticeStaleGeometry pins the stale-lattice contract: changing
// the interval geometry moves every key, so a lattice populated under the
// old geometry can only miss — the new-geometry run is correct and
// entirely cold, never restored into the wrong trajectory.
func TestSpineLatticeStaleGeometry(t *testing.T) {
	const wlName = "libquantum"
	oldCfg := parallelCases(2, false)[1]
	newCfg := oldCfg
	newCfg.Sampling.Period = 60_000 // 5 planned intervals at new boundaries
	wl := traceWorkload(wlName, oldCfg)
	dir := t.TempDir()

	runSampledWorkers(t, latticeCfg(oldCfg, dir), wl, wlName, 2)
	coldRes, coldJS, coldState, _ := runSampledWorkers(t, newCfg, wl, wlName, 2)
	res, js, state, work := runSampledWorkers(t, latticeCfg(newCfg, dir), wl, wlName, 2)
	if work.LatticeHits != 0 {
		t.Errorf("stale lattice produced %d hits under a changed geometry, want 0", work.LatticeHits)
	}
	if work.LatticeMisses == 0 {
		t.Errorf("stale-lattice run probed nothing")
	}
	if !reflect.DeepEqual(coldRes, res) || !bytes.Equal(coldJS, js) || !bytes.Equal(coldState, state) {
		t.Errorf("run against a stale lattice diverged from its cold run")
	}
}

// TestSpineLatticeCorruptionFallsBackCold damages every file of a
// populated lattice three ways — a byte flipped inside the snapshot,
// truncation, and a byte flipped in the header's echoed fingerprint —
// and requires the resumed run to miss every boundary and
// fall back to a fully cold run with an unchanged result. Together with
// the codec-level sweeps in internal/ckpt, this is the end-to-end
// adversarial gate: no store damage may panic or change simulation
// output.
func TestSpineLatticeCorruptionFallsBackCold(t *testing.T) {
	const wlName = "libquantum"
	cfg := parallelCases(2, false)[3] // banshee
	wl := traceWorkload(wlName, cfg)
	coldRes, coldJS, coldState, _ := runSampledWorkers(t, cfg, wl, wlName, 2)

	corrupt := func(t *testing.T, damage func([]byte) []byte) {
		dir := t.TempDir()
		runSampledWorkers(t, latticeCfg(cfg, dir), wl, wlName, 2)
		n := 0
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if err := os.WriteFile(path, damage(blob), 0o644); err != nil {
				return err
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("corrupting store: %v", err)
		}
		if n == 0 {
			t.Fatalf("populated lattice store holds no files")
		}
		res, js, state, work := runSampledWorkers(t, latticeCfg(cfg, dir), wl, wlName, 2)
		if work.LatticeHits != 0 || work.LatticeMisses != work.Dispatched {
			t.Errorf("corrupted lattice hit %d and missed %d of %d boundaries, want every one missed",
				work.LatticeHits, work.LatticeMisses, work.Dispatched)
		}
		if !reflect.DeepEqual(coldRes, res) || !bytes.Equal(coldJS, js) || !bytes.Equal(coldState, state) {
			t.Errorf("run against a corrupted lattice diverged from the cold run")
		}
	}

	t.Run("bitflip", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte {
			if len(b) > 0 {
				b[len(b)/2] ^= 0x40
			}
			return b
		})
	})
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:len(b)/2] })
	})
	// The header carries no checksum: its echoed fingerprint alone must
	// reject a damaged one.
	t.Run("header", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte {
			// The fingerprint's first byte follows the magic, the schema and
			// the fingerprint's length.
			b[len("ACRDLATB")+4+4] ^= 0x40
			return b
		})
	})
}

// TestSpineLatticeEarlyStopCatchUp resumes early-stopped runs over a
// stride-2 lattice, so the spine alternates hits with misses whose
// catch-up restores the last hit's blob while the committer returns the
// entry buffers of superseded, cancelled and discarded intervals to the
// list the spine probes from. Every worker count must equal the cold
// run; under -race (make race) it also proves the buffer hand-offs.
func TestSpineLatticeEarlyStopCatchUp(t *testing.T) {
	const wlName = "libquantum"
	cfg := parallelCases(2, true)[1] // accord-2way, TargetCI 0.5
	wl := traceWorkload(wlName, cfg)
	coldRes, coldJS, coldState, _ := runSampledWorkers(t, cfg, wl, wlName, 1)

	// Populate without early stopping (TargetCI is not in the key), so
	// boundaries 0, 2 and 4 are all stored.
	dir := t.TempDir()
	strided := latticeCfg(cfg, dir)
	strided.SpineStride = 2
	full := strided
	full.Sampling.TargetCI = 0
	runSampledWorkers(t, full, wl, wlName, 1)

	for _, workers := range []int{1, 2, 3} {
		res, js, state, work := runSampledWorkers(t, strided, wl, wlName, workers)
		if work.LatticeHits == 0 || work.LatticeMisses == 0 {
			t.Errorf("workers=%d: hit %d and missed %d, want both a hit and a catch-up miss",
				workers, work.LatticeHits, work.LatticeMisses)
		}
		if !reflect.DeepEqual(coldRes, res) || !bytes.Equal(coldJS, js) || !bytes.Equal(coldState, state) {
			t.Errorf("workers=%d: early-stopped stride-2 resume diverged from cold", workers)
		}
	}
}

// TestSpineProbeKeepsLastBuffer pins the entry-buffer rule the stale
// protocol relies on: after a hit the committer may return the hit's
// buffer to the free list while the spine still needs its blob for the
// next miss's catch-up restore, so a probe must not read into it.
func TestSpineProbeKeepsLastBuffer(t *testing.T) {
	const wlName = "libquantum"
	cfg := latticeCfg(parallelCases(1, false)[1], t.TempDir())
	wl := traceWorkload(wlName, cfg)
	New(cfg, wl).Run(wlName)

	sl := New(cfg, wl).openSpineLattice(wlName)
	last, lastBuf, ok := sl.probe(0, nil)
	if !ok {
		t.Fatal("boundary 0 missed a populated lattice")
	}
	want := bytes.Clone(last)
	sl.bufs.put(lastBuf) // returned by the committer, still the spine's last blob
	blob, buf, ok := sl.probe(1, lastBuf)
	if !ok {
		t.Fatal("boundary 1 missed a populated lattice")
	}
	if buf == lastBuf || !bytes.Equal(last, want) {
		t.Fatal("the probe of boundary 1 read into the last loaded boundary's buffer")
	}
	if bytes.Equal(blob, want) {
		t.Fatal("boundaries 0 and 1 loaded the same snapshot")
	}
}

// TestSpineLatticeResumeReusesBuffers bounds what a fully warm resume
// allocates: its probes read into entry buffers the run recycles, so
// over 48 boundaries it allocates less than half its boundaries' worth
// of entry-sized memory in all. One new buffer per hit would alone
// exceed the bound. It runs alone, so the process-wide allocation count
// is the run's.
func TestSpineLatticeResumeReusesBuffers(t *testing.T) {
	const wlName = "libquantum"
	const boundaries = 48
	cfg := parallelCases(1, false)[1] // accord-2way
	cfg.MeasureInstr = boundaries * cfg.Sampling.Period
	cfg.SampleWorkers = 1
	wl := traceWorkload(wlName, cfg)
	dir := t.TempDir()
	cfg = latticeCfg(cfg, dir)
	New(cfg, wl).Run(wlName)

	entries, err := os.ReadDir(formatDir(dir))
	if err != nil || len(entries) != boundaries {
		t.Fatalf("populated lattice holds %d entries (%v), want %d", len(entries), err, boundaries)
	}
	info, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	entryBytes := uint64(info.Size())

	s := New(cfg, wl)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Run(wlName)
	runtime.ReadMemStats(&after)
	if work := s.SampleWork(); work.LatticeHits != boundaries || work.LatticeMisses != 0 {
		t.Fatalf("resume hit %d and missed %d of %d boundaries", work.LatticeHits, work.LatticeMisses, boundaries)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := boundaries * entryBytes / 2; alloc >= limit {
		t.Errorf("fully warm resume allocated %d bytes, want < %d (half of %d boundaries × %d-byte entries)",
			alloc, limit, boundaries, entryBytes)
	}
	t.Logf("fully warm resume of %d boundaries allocated %d bytes; one entry is %d bytes", boundaries, alloc, entryBytes)
}

// TestSpineLatticeStride pins the stride contract: SpineStride N saves
// every Nth boundary, so a resumed run hits exactly those and recomputes
// the rest — still byte-identical to cold, on one core and on two.
func TestSpineLatticeStride(t *testing.T) {
	const wlName = "libquantum"
	for _, cores := range []int{1, 2} {
		cores := cores
		t.Run(fmt.Sprintf("%dc", cores), func(t *testing.T) {
			t.Parallel()
			cfg := parallelCases(cores, false)[1] // accord-2way, 6 planned intervals
			wl := traceWorkload(wlName, cfg)
			coldRes, coldJS, coldState, _ := runSampledWorkers(t, cfg, wl, wlName, 1)

			dir := t.TempDir()
			strided := latticeCfg(cfg, dir)
			strided.SpineStride = 2
			runSampledWorkers(t, strided, wl, wlName, 1)
			res, js, state, work := runSampledWorkers(t, strided, wl, wlName, 1)
			if work.LatticeHits != 3 || work.LatticeMisses != 3 {
				t.Errorf("stride-2 resume hit %d / missed %d over 6 boundaries, want 3/3",
					work.LatticeHits, work.LatticeMisses)
			}
			if !reflect.DeepEqual(coldRes, res) || !bytes.Equal(coldJS, js) || !bytes.Equal(coldState, state) {
				t.Errorf("stride-2 resumed run diverged from cold")
			}
		})
	}
}

// TestSpineLatticeDefaultSavesWarmBoundary pins the default save rule:
// with SpineStride 0 a sampled run saves boundary 0 alone, the state
// after functional warmup, so a directory holds one entry per design
// point, in its format subdirectory. A resume hits exactly that boundary,
// forks every boundary it computes in memory, and reproduces the run
// without a directory — Result, metrics JSON and final state — at one
// and two workers, on one core and on two.
func TestSpineLatticeDefaultSavesWarmBoundary(t *testing.T) {
	const wlName = "libquantum"
	for _, cores := range []int{1, 2} {
		cores := cores
		t.Run(fmt.Sprintf("%dc", cores), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cases := parallelCases(cores, false)
			points := []Config{cases[1], cases[5]} // accord-2way and tdram, 6 planned intervals each
			wls := make([]workloads.Workload, len(points))
			want := map[string]bool{}
			for i, cfg := range points {
				wls[i] = traceWorkload(wlName, cfg)
				cfg.SpineCheckpointDir = dir
				runSampledWorkers(t, cfg, wls[i], wlName, 2)
				want[New(cfg, wls[i]).SpineKey(wlName, 0)+".ckpt"] = true
			}
			entries, err := os.ReadDir(formatDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if !want[e.Name()] {
					t.Errorf("directory holds %s, which is no design point's boundary 0", e.Name())
				}
			}
			if len(entries) != len(points) {
				t.Errorf("directory holds %d entries for %d design points, want one each", len(entries), len(points))
			}

			for i, cfg := range points {
				coldRes, coldJS, coldState, _ := runSampledWorkers(t, cfg, wls[i], wlName, 2)
				cfg.SpineCheckpointDir = dir
				for _, workers := range []int{1, 2} {
					res, js, state, work := runSampledWorkers(t, cfg, wls[i], wlName, workers)
					if work.LatticeHits != 1 || work.LatticeMisses != work.Dispatched-1 {
						t.Errorf("%s, %d workers: resume hit %d and missed %d of %d boundaries, want boundary 0 alone",
							cfg.Name, workers, work.LatticeHits, work.LatticeMisses, work.Dispatched)
					}
					if work.MemoryForks != work.LatticeMisses {
						t.Errorf("%s, %d workers: %d memory forks for %d computed boundaries",
							cfg.Name, workers, work.MemoryForks, work.LatticeMisses)
					}
					if !reflect.DeepEqual(coldRes, res) || !bytes.Equal(coldJS, js) || !bytes.Equal(coldState, state) {
						t.Errorf("%s, %d workers: resume from boundary 0 diverged from the run without a directory",
							cfg.Name, workers)
					}
				}
			}
		})
	}
}

// TestSpineLatticeWarmResumeBuildsNoHolder pins where the trial copy
// happens: at the first boundary the spine computes. A fully warm
// stride-1 resume computes none, so it builds no holder System; the cold
// run that populated its lattice copied every boundary into holders.
func TestSpineLatticeWarmResumeBuildsNoHolder(t *testing.T) {
	const wlName = "libquantum"
	cfg := latticeCfg(parallelCases(2, false)[1], t.TempDir()) // accord-2way
	cfg.SampleWorkers = 2
	wl := traceWorkload(wlName, cfg)
	builds := 0
	defer func(build func(Config, workloads.Workload) *System) { newHolder = build }(newHolder)
	newHolder = func(c Config, w workloads.Workload) *System {
		builds++
		return New(c, w)
	}

	s := New(cfg, wl)
	s.Run(wlName)
	if work := s.SampleWork(); builds == 0 || work.MemoryForks != work.Dispatched {
		t.Fatalf("populating run built %d holders and forked %d of %d boundaries in memory",
			builds, work.MemoryForks, work.Dispatched)
	}
	builds = 0
	s = New(cfg, wl)
	s.Run(wlName)
	if work := s.SampleWork(); work.LatticeHits != work.Dispatched || work.LatticeMisses != 0 {
		t.Fatalf("resume hit %d and missed %d of %d boundaries", work.LatticeHits, work.LatticeMisses, work.Dispatched)
	}
	if builds != 0 {
		t.Errorf("fully warm resume built %d holders, want none", builds)
	}
}

// copyOnlyPolicy forwards an ACCORD policy and its copy method, but not
// its checkpoint methods: a system built on it can fork in memory but
// cannot snapshot.
type copyOnlyPolicy struct {
	core.Policy
	acc *core.ACCORD
}

func (p copyOnlyPolicy) CopyFrom(src core.Policy) error {
	s, ok := src.(copyOnlyPolicy)
	if !ok {
		return fmt.Errorf("copyOnlyPolicy: cannot copy %T", src)
	}
	return p.acc.CopyFrom(s.acc)
}

// TestSpineLatticeNeedsSnapshots pins that a system which can copy its
// state but not snapshot it runs with the lattice off: it forks every
// boundary in memory, writes no store entry, and matches the same run
// without a lattice.
func TestSpineLatticeNeedsSnapshots(t *testing.T) {
	const wlName = "libquantum"
	cfg := parallelCases(2, false)[1] // accord-2way
	cfg.SampleWorkers = 2
	cfg.Policy = func(g core.Geometry, seed int64) core.Policy {
		p := core.NewACCORD(core.DefaultACCORD(g, seed))
		return copyOnlyPolicy{Policy: p, acc: p}
	}
	wl := traceWorkload(wlName, cfg)
	run := func(cfg Config) (Result, SampleWork) {
		s := New(cfg, wl)
		res := s.Run(wlName)
		return res, s.SampleWork()
	}

	want, _ := run(cfg)
	dir := t.TempDir()
	res, work := run(latticeCfg(cfg, dir))
	if work.LatticeHits != 0 || work.LatticeMisses != 0 {
		t.Errorf("run without snapshots touched the lattice: %+v", work)
	}
	if work.Dispatched == 0 || work.MemoryForks != work.Dispatched {
		t.Errorf("memory_forks %d, dispatched %d; want every boundary copied", work.MemoryForks, work.Dispatched)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("run with an unusable lattice diverged from the run without one")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("run without snapshots created %d store entries, want an untouched directory", len(entries))
	}
}

// TestSpineKeyGeometry pins what SpineKey covers: measurement knobs move
// nothing, geometry and warmup move everything.
func TestSpineKeyGeometry(t *testing.T) {
	base := parallelCases(2, false)[1]
	wl := traceWorkload("libquantum", base)
	key := func(cfg Config) string {
		return New(cfg, wl).SpineKey("libquantum", 3)
	}
	ref := key(base)

	same := base
	same.MeasureInstr *= 2
	same.Sampling.TargetCI = 0.25
	same.SampleWorkers = 7
	same.SpineCheckpointDir = "/elsewhere"
	same.SpineStride = 4
	if key(same) != ref {
		t.Errorf("measurement-only knobs moved the spine key")
	}

	for name, mut := range map[string]func(*Config){
		"period":  func(c *Config) { c.Sampling.Period += 10_000 },
		"warmlen": func(c *Config) { c.Sampling.WarmLen += 1_000 },
		"detail":  func(c *Config) { c.Sampling.DetailLen += 1_000 },
		"warmup":  func(c *Config) { c.WarmupInstr += 10_000 },
		"seed":    func(c *Config) { c.Seed++ },
	} {
		cfg := base
		mut(&cfg)
		if key(cfg) == ref {
			t.Errorf("%s change did not move the spine key", name)
		}
	}
}

// BenchmarkSpineResume measures what the lattice buys on a sampled run
// with the gigascale example's interval geometry (7.5% of each period
// detailed, the regime SMARTS sampling targets), scaled down to bench
// size. Five legs:
//
//   - cold: no lattice, the baseline.
//   - populate: cold run saving the default, boundary 0 alone (the
//     default configuration's population overhead).
//   - populate-dense: cold run saving every boundary (stride 1), what a
//     run that expects repeats pays.
//   - resumed: fully-warm re-run off the dense lattice, where the spine
//     degenerates to probe+restore.
//   - resumed-warm: re-run off a default directory, which restores
//     boundary 0 instead of warming up and computes the rest.
//
// All legs produce byte-identical results
// (TestSpineLatticeResumedMatchesCold,
// TestSpineLatticeDefaultSavesWarmBoundary), so cold/resumed is pure
// execution speedup. The stream is recorded once off the clock.
func BenchmarkSpineResume(b *testing.B) {
	cfg := ACCORD(2)
	cfg.Scale = 8192
	cfg.Cores = 4
	cfg.DisableAdaptiveBudgets = true
	cfg.WarmupInstr = 100_000
	cfg.MeasureInstr = 6_400_000
	cfg.Seed = 1
	cfg.Sampling = SamplingConfig{
		Period:       800_000,
		DetailLen:    40_000,
		WarmLen:      20_000,
		MinIntervals: 2,
	}
	cfg.SampleWorkers = 1
	gen := workloads.MustGet("libquantum", cfg.Cores)
	tc := workloads.NewTraceCache(1 << 30)
	wl := gen
	wl.Source = tc.Source(gen.Specs, cfg.AnchorLines(), cfg.Seed)

	// Record the stream and populate the dense lattice and a default
	// directory once, off the clock.
	denseDir, warmDir := b.TempDir(), b.TempDir()
	New(latticeCfg(cfg, denseDir), wl).Run("libquantum")
	warm := cfg
	warm.SpineCheckpointDir = warmDir
	New(warm, wl).Run("libquantum")

	run := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := New(cfg, wl).Run("libquantum"); res.Instructions == 0 {
				b.Fatal("run retired no instructions")
			}
		}
	}
	populate := func(b *testing.B, stride int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "spine-bench")
			if err != nil {
				b.Fatal(err)
			}
			c := cfg
			c.SpineCheckpointDir = dir
			c.SpineStride = stride
			b.StartTimer()
			if res := New(c, wl).Run("libquantum"); res.Instructions == 0 {
				b.Fatal("run retired no instructions")
			}
			b.StopTimer()
			os.RemoveAll(dir)
			b.StartTimer()
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, cfg) })
	b.Run("populate", func(b *testing.B) { populate(b, 0) })
	b.Run("populate-dense", func(b *testing.B) { populate(b, 1) })
	b.Run("resumed", func(b *testing.B) { run(b, latticeCfg(cfg, denseDir)) })
	b.Run("resumed-warm", func(b *testing.B) { run(b, warm) })
}
