package exp

import (
	"strings"
	"testing"

	"accord/internal/sim"
)

// tinyParams keeps experiment smoke tests fast: a 512 KB model cache and
// short windows.
func tinyParams() Params {
	return Params{Scale: 8192, Cores: 4, WarmupInstr: 100_000, MeasureInstr: 100_000, Seed: 1}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "tab1", "tab2", "fig6", "tab5", "fig7", "tab6", "fig10",
		"tab7", "fig13", "fig12", "tab8", "tab9", "fig14", "tab10", "fig15", "lru",
		"ablgws", "ablsws", "ablhier", "backends",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("experiment %d = %s, want %s", i, ids[i], id)
		}
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("Find(%q) failed", id)
		}
	}
	if _, ok := Find("nonexistent"); ok {
		t.Error("Find succeeded for unknown id")
	}
}

func TestExperimentMetadata(t *testing.T) {
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %+v missing metadata", e.ID)
		}
	}
}

func TestSessionMemoization(t *testing.T) {
	s := NewSession(tinyParams())
	r1 := s.Run(sim.DirectMapped(), "nekbone")
	before := s.memoSize()
	r2 := s.Run(sim.DirectMapped(), "nekbone")
	if s.memoSize() != before {
		t.Error("second identical run was not memoized")
	}
	if r1.MeanIPC() != r2.MeanIPC() {
		t.Error("memoized result differs")
	}
}

func TestSessionDefaults(t *testing.T) {
	s := NewSession(Params{})
	if s.Params().Cores != 16 || s.Params().Scale != 256 {
		t.Errorf("defaults not applied: %+v", s.Params())
	}
}

func TestSpeedupSelfIsOne(t *testing.T) {
	s := NewSession(tinyParams())
	if ws := s.Speedup(sim.DirectMapped(), "nekbone"); ws != 1 {
		t.Errorf("baseline speedup over itself = %v, want exactly 1", ws)
	}
}

func TestCyclicKernelAsymptotes(t *testing.T) {
	// Figure 6's anchors: a direct-mapped cache (PIP=100%) thrashes to a
	// 0% steady-state hit rate, while the unbiased 2-way policy (PIP=50%)
	// learns to use both ways and approaches 100% for large N.
	dm := cyclicHitRate(1.0, 64, 50)
	if dm > 0.01 {
		t.Errorf("direct-mapped cyclic hit rate = %.3f, want ~0", dm)
	}
	unbiased := cyclicHitRate(0.50, 64, 50)
	if unbiased < 0.85 {
		t.Errorf("PIP=50%% cyclic hit rate at N=64 = %.3f, want > 0.85", unbiased)
	}
	// Higher PIP learns more slowly: at small N, PIP=90% trails PIP=50%.
	lo := cyclicHitRate(0.90, 4, 200)
	hi := cyclicHitRate(0.50, 4, 200)
	if lo >= hi {
		t.Errorf("PIP=90%% (%.3f) should trail PIP=50%% (%.3f) at N=4", lo, hi)
	}
	// But with enough reuse even PIP=90% exceeds 80% (the paper's point).
	if late := cyclicHitRate(0.90, 128, 50); late < 0.8 {
		t.Errorf("PIP=90%% at N=128 = %.3f, want > 0.8", late)
	}
}

func TestTab1MatchesAnalyticTable(t *testing.T) {
	e, _ := Find("tab1")
	tables := e.Run(NewSession(tinyParams()))
	if len(tables) != 1 {
		t.Fatalf("tab1 produced %d tables", len(tables))
	}
	out := strings.Join(strings.Fields(tables[0].Render()), " ")
	// The analytic Table I, row by row (hit transfers, miss transfers).
	for _, want := range []string{
		"direct-mapped 1.00 1",           // 1 transfer hit and miss
		"parallel lookup (4-way) 4.00 4", // N transfers always
		"serial lookup (4-way) 2.50 4",   // (N+1)/2 average hit, N miss
		"way-predicted (4-way) 1.00 4",   // 1 on predicted hit, N on miss
		"idealized (4-way) 1.00 1",       // oracle
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, tables[0].Render())
		}
	}
}

func TestTab9Storage(t *testing.T) {
	e, _ := Find("tab9")
	out := e.Run(NewSession(tinyParams()))[0].Render()
	if !strings.Contains(out, "320 B") {
		t.Errorf("Table IX missing the 320-byte total:\n%s", out)
	}
	if !strings.Contains(out, "probabilistic way-steering  0 B") {
		t.Errorf("PWS storage should be zero:\n%s", out)
	}
}

func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow; skipped with -short")
	}
	s := NewSession(tinyParams())
	for _, e := range All() {
		tables := e.Run(s)
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", e.ID)
			continue
		}
		for _, tb := range tables {
			if tb.NumRows() == 0 {
				t.Errorf("%s produced an empty table", e.ID)
			}
			if out := tb.Render(); len(out) == 0 {
				t.Errorf("%s rendered empty output", e.ID)
			}
		}
		t.Logf("experiment %s ok (%d tables)", e.ID, len(tables))
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0 B",
		320:     "320 B",
		4 << 10: "4 KB",
		4 << 20: "4 MB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSpeedupFigureShape(t *testing.T) {
	s := NewSession(tinyParams())
	cfgs := []sim.Config{sim.PWS(0.85), sim.ACCORD(2)}
	names := []string{"nekbone", "sphinx3"}
	tb := speedupFigure(s, "shape test", cfgs, names)
	// One row per workload plus the geomean row.
	if tb.NumRows() != len(names)+1 {
		t.Errorf("rows = %d, want %d", tb.NumRows(), len(names)+1)
	}
	out := tb.Render()
	for _, want := range []string{"nekbone", "sphinx3", "GMEAN", "2way-pws85", "accord-2way", "bar"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing %q:\n%s", want, out)
		}
	}
}

func TestAmeanHelpers(t *testing.T) {
	s := NewSession(tinyParams())
	names := []string{"nekbone"}
	hr := s.ameanHitRate(sim.DirectMapped(), names)
	if hr <= 0 || hr > 1 {
		t.Errorf("amean hit rate = %v", hr)
	}
	acc := s.ameanAccuracy(sim.ACCORD(2), names)
	if acc <= 0 || acc > 1 {
		t.Errorf("amean accuracy = %v", acc)
	}
}

func TestSuiteSpeedupsGeomean(t *testing.T) {
	s := NewSession(tinyParams())
	per, g := s.SuiteSpeedups(sim.DirectMapped(), []string{"nekbone", "sphinx3"})
	if len(per) != 2 {
		t.Fatalf("per-workload entries = %d", len(per))
	}
	for _, ws := range per {
		if ws != 1 {
			t.Errorf("baseline self-speedup = %v, want 1", ws)
		}
	}
	if g != 1 {
		t.Errorf("geomean = %v, want 1", g)
	}
}

// TestUndefinedAccuracyIsNA pins the undefined-not-zero convention for
// way-prediction accuracy. At this scale ACCORD's full-hierarchy runs of
// nekbone and sphinx3 make no prediction, so ablhier must print n/a in
// their cells, not 0.0%, and an average over the suite must skip them.
func TestUndefinedAccuracyIsNA(t *testing.T) {
	s := NewSession(tinyParams())
	full := sim.ACCORD(2)
	full.FullHierarchy = true
	full.Name = "accord-2way+hier"

	var sum float64
	var defined, undefined int
	for _, wl := range ablationSample {
		if r := s.Run(full, wl); r.L4.Predictions > 0 {
			sum += float64(r.L4.Correct) / float64(r.L4.Predictions)
			defined++
		} else {
			undefined++
		}
	}
	if defined == 0 || undefined == 0 {
		t.Fatalf("%d defined and %d undefined accuracies; the test needs both", defined, undefined)
	}
	if got, want := s.ameanAccuracy(full, ablationSample), sum/float64(defined); got != want {
		t.Errorf("amean accuracy = %v, want %v, the mean of the %d defined values", got, want, defined)
	}

	e, _ := Find("ablhier")
	var rows []string
	for _, tb := range s.RunExperiment(e) {
		rows = append(rows, strings.Split(tb.Render(), "\n")...)
	}
	for _, wl := range ablationSample {
		r := s.Run(full, wl)
		for _, row := range rows {
			f := strings.Fields(row)
			if len(f) == 0 || f[0] != wl {
				continue
			}
			last := f[len(f)-1]
			if r.L4.Predictions == 0 && last != "n/a" {
				t.Errorf("%s: undefined full-hierarchy accuracy rendered %q, want n/a", wl, last)
			}
			if r.L4.Predictions > 0 && !strings.HasSuffix(last, "%") {
				t.Errorf("%s: defined full-hierarchy accuracy rendered %q", wl, last)
			}
		}
	}
}
