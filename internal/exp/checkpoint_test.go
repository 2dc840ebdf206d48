package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accord/internal/sim"
	"accord/internal/stats"
)

// ckptSession builds a session over the golden parameters with the given
// checkpoint directory ("" disables the store).
func ckptSession(dir string, progress *bytes.Buffer) *Session {
	p := goldenParams()
	p.CheckpointDir = dir
	if progress != nil {
		p.Progress = progress
	}
	return NewSession(p)
}

// TestSessionCheckpointIdentity runs every golden case cold, then again
// through a store-backed session twice (populate, restore), and requires
// byte-identical exports each time. This is the golden-suite
// "unchanged with and without a populated store" acceptance criterion in
// miniature, plus proof that the store actually gets used.
func TestSessionCheckpointIdentity(t *testing.T) {
	dir := t.TempDir()
	for _, cfg := range goldenCases() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cold := goldenExport(t, cfg, false)

			exportWith := func(progress *bytes.Buffer) []byte {
				s := ckptSession(dir, progress)
				s.Run(cfg, goldenWorkload)
				var buf bytes.Buffer
				if err := s.ExportMetrics(nil).WriteJSON(&buf); err != nil {
					t.Fatalf("WriteJSON: %v", err)
				}
				return buf.Bytes()
			}

			var firstLog, secondLog bytes.Buffer
			first := exportWith(&firstLog)
			second := exportWith(&secondLog)

			if !bytes.Equal(cold, first) {
				t.Error("store-populating run diverged from the no-store export")
			}
			if !bytes.Equal(cold, second) {
				t.Error("checkpoint-restored run diverged from the no-store export")
			}
			if !strings.Contains(firstLog.String(), " ran ") {
				t.Errorf("first run should report a cold simulation, got %q", firstLog.String())
			}
			if !strings.Contains(secondLog.String(), " warm ") {
				t.Errorf("second run should report a restored simulation, got %q", secondLog.String())
			}
		})
	}
}

// TestCheckpointTraceCacheInterop proves warm checkpoints are
// interchangeable between generator-backed and replay-backed sessions: a
// store populated with the trace cache off restores into a session with
// it on (cursor adopts a generator snapshot), a store populated with it
// on restores into a generator-backed session (cursor snapshots encode
// generator bytes), and every export matches the cold reference.
func TestCheckpointTraceCacheInterop(t *testing.T) {
	cfg := goldenCases()[1]
	cold := goldenExport(t, cfg, false)

	exportWith := func(dir string, traceCache bool, progress *bytes.Buffer) []byte {
		p := goldenParams()
		p.CheckpointDir = dir
		p.TraceCache = traceCache
		if progress != nil {
			p.Progress = progress
		}
		s := NewSession(p)
		s.Run(cfg, goldenWorkload)
		var buf bytes.Buffer
		if err := s.ExportMetrics(nil).WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}

	for _, tc := range []struct {
		name             string
		populate, replay bool
	}{
		{"generate-then-replay", false, true},
		{"replay-then-generate", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if got := exportWith(dir, tc.populate, nil); !bytes.Equal(cold, got) {
				t.Error("populating run diverged from the cold reference")
			}
			var log bytes.Buffer
			if got := exportWith(dir, tc.replay, &log); !bytes.Equal(cold, got) {
				t.Error("restored run diverged from the cold reference")
			}
			if !strings.Contains(log.String(), " warm ") {
				t.Errorf("second run should restore the checkpoint, got %q", log.String())
			}
		})
	}
}

// TestSessionCorruptStoreFallsBack truncates every stored checkpoint and
// verifies the session silently degrades to cold runs with identical
// output.
func TestSessionCorruptStoreFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenCases()[1]
	cold := goldenExport(t, cfg, false)

	s := ckptSession(dir, nil)
	s.Run(cfg, goldenWorkload)

	files, err := filepath.Glob(filepath.Join(dir, sim.CheckpointFormatID(), "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoints written: files=%v err=%v", files, err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var log bytes.Buffer
	s2 := ckptSession(dir, &log)
	s2.Run(cfg, goldenWorkload)
	var buf bytes.Buffer
	if err := s2.ExportMetrics(nil).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, buf.Bytes()) {
		t.Error("cold fallback after store corruption diverged from the no-store export")
	}
	if !strings.Contains(log.String(), " ran ") {
		t.Errorf("corrupt store should force a cold run, got %q", log.String())
	}
}

// TestSessionBadCheckpointDir points the store at an unusable path; the
// session must run cold, with the no-store result, rather than fail.
func TestSessionBadCheckpointDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := goldenExport(t, goldenCases()[0], false)
	var log bytes.Buffer
	s := ckptSession(filepath.Join(file, "nested"), &log) // mkdir under a file fails
	s.Run(goldenCases()[0], goldenWorkload)
	var buf bytes.Buffer
	if err := s.ExportMetrics(nil).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, buf.Bytes()) {
		t.Error("run over an unusable checkpoint directory diverged from the no-store export")
	}
	if !strings.Contains(log.String(), " ran ") {
		t.Errorf("unusable checkpoint directory should force a cold run, got %q", log.String())
	}
}

// TestWarmSweepRestoresEveryPoint runs a small sweep three times, exact
// and sampled: without a checkpoint directory, populating one, and over
// it. The warm sweep must render the cold sweep's tables. Its exact
// points restore their warm states and report warm. Its sampled points
// restore boundary 0, the one boundary a sampled point saves, and
// compute the rest, so they report ran.
func TestWarmSweepRestoresEveryPoint(t *testing.T) {
	cfgs := goldenCases()[:3]
	sweep := Experiment{ID: "warm-sweep", Run: func(s *Session) []*stats.Table {
		tb := stats.NewTable("warm sweep", "config", "workload", "ipc", "hit")
		for _, cfg := range cfgs {
			for _, wl := range []string{"libquantum", "milc"} {
				r := s.Run(cfg, wl)
				tb.AddRow(cfg.Name, wl, fmt.Sprintf("%.6f", r.MeanIPC()), pct(r.HitRate()))
			}
		}
		return []*stats.Table{tb}
	}}
	for _, sampled := range []bool{false, true} {
		t.Run(fmt.Sprintf("sampled=%t", sampled), func(t *testing.T) {
			dir := t.TempDir()
			render := func(dir string) (string, string, sim.SampleWork) {
				var log bytes.Buffer
				p := goldenParams()
				p.CheckpointDir = dir
				p.Parallelism = 2
				p.Progress = &log
				if sampled {
					p.Sampling = sim.SamplingConfig{Period: 10_000, DetailLen: 2_000, WarmLen: 1_000, MinIntervals: 2}
				}
				s := NewSession(p)
				var out strings.Builder
				for _, tb := range s.RunExperiment(sweep) {
					out.WriteString(tb.Render())
				}
				return out.String(), log.String(), s.SampleWorkTotals()
			}
			cold, _, _ := render("")
			populated, popLog, _ := render(dir)
			warm, warmLog, work := render(dir)
			if populated != cold || warm != cold {
				t.Errorf("tables differ across checkpoint states:\ncold:\n%s\npopulating:\n%s\nwarm:\n%s", cold, populated, warm)
			}
			points := len(cfgs) * 2
			if n := strings.Count(popLog, " ran "); n != points {
				t.Errorf("populating sweep ran %d of %d points cold:\n%s", n, points, popLog)
			}
			verb := " warm "
			if sampled {
				verb = " ran "
				if work.LatticeHits != points || work.LatticeMisses != work.Dispatched-points {
					t.Errorf("warm sweep hit %d and missed %d of %d boundaries, want boundary 0 of each of %d points",
						work.LatticeHits, work.LatticeMisses, work.Dispatched, points)
				}
			}
			if n := strings.Count(warmLog, verb); n != points {
				t.Errorf("warm sweep reported %d of %d points%s:\n%s", n, points, verb, warmLog)
			}
		})
	}
}

// TestSessionCheckpointParallelism runs a multi-config sweep at
// parallelism 4 against a shared store twice and compares against the
// sequential no-store results, guarding the concurrent save/load path.
func TestSessionCheckpointParallelism(t *testing.T) {
	dir := t.TempDir()
	cases := goldenCases()

	run := func(p Params) map[string]sim.Result {
		s := NewSession(p)
		out := make(map[string]sim.Result, len(cases))
		for _, cfg := range cases {
			out[cfg.Name] = s.Run(cfg, goldenWorkload)
		}
		return out
	}

	base := run(goldenParams())
	for pass := 0; pass < 2; pass++ {
		p := goldenParams()
		p.CheckpointDir = dir
		p.Parallelism = 4
		got := run(p)
		for name, want := range base {
			if got[name].Config != want.Config || got[name].Instructions != want.Instructions ||
				got[name].Cycles != want.Cycles || got[name].L4 != want.L4 {
				t.Errorf("pass %d: %s diverged under parallel store access", pass, name)
			}
		}
	}
}
