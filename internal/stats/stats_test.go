package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeomean(t *testing.T) {
	if g, ok := Geomean([]float64{2, 8}); !ok || !almostEqual(g, 4) {
		t.Errorf("Geomean(2,8) = %v,%v, want 4,true", g, ok)
	}
	if g, ok := Geomean([]float64{1, 1, 1}); !ok || !almostEqual(g, 1) {
		t.Errorf("Geomean(1,1,1) = %v,%v, want 1,true", g, ok)
	}
	// Non-positive entries are skipped.
	if g, ok := Geomean([]float64{-1, 0, 4}); !ok || !almostEqual(g, 4) {
		t.Errorf("Geomean with non-positive = %v,%v, want 4,true", g, ok)
	}
}

func TestAmean(t *testing.T) {
	if a := Amean([]float64{1, 2, 3}); !almostEqual(a, 2) {
		t.Errorf("Amean = %v, want 2", a)
	}
	if a := Amean(nil); a != 0 {
		t.Errorf("Amean(nil) = %v, want 0", a)
	}
}

func TestGeomeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			x := math.Abs(r)
			if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) || x > 1e100 {
				continue
			}
			xs = append(xs, x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		g, ok := Geomean(xs)
		if len(xs) == 0 {
			return !ok
		}
		return ok && g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRowf("alpha", 1.5)
	tb.AddRowf("b", 12)
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tb.NumRows())
	}
	out := tb.Render()
	for _, want := range []string{"Demo", "name", "alpha", "1.50", "12"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableNoHeader(t *testing.T) {
	tb := NewTable("")
	tb.AddRow("x")
	out := tb.Render()
	if strings.Contains(out, "==") {
		t.Errorf("untitled table rendered a title: %q", out)
	}
	if !strings.Contains(out, "x") {
		t.Errorf("row missing: %q", out)
	}
}

func TestBar(t *testing.T) {
	if b := Bar(1, 2, 10); b != "#####" {
		t.Errorf("Bar(1,2,10) = %q, want 5 cells", b)
	}
	if b := Bar(3, 2, 10); b != "##########" {
		t.Errorf("over-scale bar = %q, want clamped to width", b)
	}
	if Bar(-1, 2, 10) != "" || Bar(1, 0, 10) != "" || Bar(1, 2, 0) != "" {
		t.Error("degenerate bars not empty")
	}
	if b := Bar(0.05, 2, 10); b != "" {
		t.Errorf("tiny value bar = %q, want empty", b)
	}
}

func TestRenderMarkdown(t *testing.T) {
	tb := NewTable("MD", "a", "b")
	tb.AddRow("1", "2")
	out := tb.RenderMarkdown()
	for _, want := range []string{"**MD**", "| a | b |", "|---|---|", "| 1 | 2 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	// Ragged rows pad to the widest row.
	tb2 := NewTable("", "x")
	tb2.AddRow("1", "2", "3")
	out2 := tb2.RenderMarkdown()
	if !strings.Contains(out2, "| 1 | 2 | 3 |") {
		t.Errorf("ragged row mishandled:\n%s", out2)
	}
	if (NewTable("")).RenderMarkdown() != "" {
		t.Error("empty table produced markdown")
	}
}

// TestUndefinedForms pins the undefined-not-zero convention of the
// aggregate helpers: an undefined result is reported distinguishably, a
// real 0 stays defined, and NaNIfUndefined carries the difference into
// the metrics export.
func TestUndefinedForms(t *testing.T) {
	if _, ok := Geomean(nil); ok {
		t.Error("Geomean(nil) claims to be defined")
	}
	if _, ok := Geomean([]float64{-2, 0}); ok {
		t.Error("Geomean with no positive entries claims to be defined")
	}
	if _, ok := RatioOK(5, 0); ok {
		t.Error("RatioOK(5,0) claims to be defined")
	}
	if r, ok := RatioOK(0, 4); !ok || r != 0 {
		t.Errorf("RatioOK(0,4) = %v,%v, want 0,true — a real 0 stays defined", r, ok)
	}

	// The bridge into the metrics export: undefined becomes NaN.
	if !math.IsNaN(NaNIfUndefined(RatioOK(1, 0))) {
		t.Error("NaNIfUndefined did not map undefined to NaN")
	}
	if NaNIfUndefined(RatioOK(1, 4)) != 0.25 {
		t.Error("NaNIfUndefined perturbed a defined value")
	}
	if !math.IsNaN(NaNIfUndefined(Geomean(nil))) {
		t.Error("NaNIfUndefined did not map an undefined Geomean to NaN")
	}
}
