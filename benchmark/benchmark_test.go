package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// lastLine parses the final JSON line a report prints.
func lastLine(t *testing.T, rep report) result {
	t.Helper()
	var buf bytes.Buffer
	rep.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	return res
}

func specNames(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTinyWorkloadsTraced runs a tiny geometry of every workload untraced
// and traced. measure checks every run — the traced one included —
// against the reference Result with reflect.DeepEqual, so a
// correct report means the probes changed no simulated output.
func TestTinyWorkloadsTraced(t *testing.T) {
	spec := specNames(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := measure(c.build(c.tiny, 1, t.TempDir()), plan{setups: 1, minReps: 1, trace: true})
			if !rep.Result.Correct {
				t.Fatalf("report not correct: %v", rep.Errors)
			}
			res := lastLine(t, rep)
			for _, m := range spec.PerLayer {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s (%s) missing or wrong unit: %+v", m.Name, m.Unit, v)
				}
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			for _, layer := range []string{"workloads.self_s", "core.self_s", "dramcache.self_s"} {
				if v(layer) < 0 {
					t.Errorf("%s = %v, want >= 0", layer, v(layer))
				}
			}
			sum := v("workloads.self_s") + v("core.self_s") + v("dramcache.self_s") + v("sim.self_s") + v("runtime.gc_cpu_s")
			if math.Abs(sum-v("trace.cpu_s")) > 1e-9*math.Max(1, v("trace.cpu_s")) {
				t.Errorf("layer self times sum to %v, traced cpu_s is %v", sum, v("trace.cpu_s"))
			}
			switch c.name {
			case "exact-write":
				if v("core.calls") != 0 {
					t.Errorf("TDRAM made %v way-policy calls, want 0", v("core.calls"))
				}
			case "exact-read", "sampled-spine":
				if v("core.calls") == 0 || v("workloads.events") == 0 || v("dramcache.detailed_ops") == 0 {
					t.Error("probes counted no policy calls, events or L4 operations")
				}
			case "sampled-resume":
				if v("ckpt.lattice_hit_frac") != 1 || v("ckpt.disk_mb") <= 0 {
					t.Errorf("resume hit fraction %v, lattice %v MiB", v("ckpt.lattice_hit_frac"), v("ckpt.disk_mb"))
				}
			case "sweep-warm":
				if v("exp.points") == 0 || v("ckpt.restored_frac") != 1 {
					t.Errorf("sweep reported %v points, %v restored", v("exp.points"), v("ckpt.restored_frac"))
				}
			}
		})
	}
}

// TestColdExactRunsFail checks that the exact workloads reject a run
// measured before the L4 is warm: without warmup the L4 is still filling,
// mcf's hit rate sits below its band and the write stream evicts few dirty
// lines to PCM.
func TestColdExactRunsFail(t *testing.T) {
	for _, name := range []string{"exact-read", "exact-write"} {
		c, _ := findCase(name)
		sz := c.tiny
		sz.warm = 0
		rep := measure(c.build(sz, 1, t.TempDir()), plan{minReps: 1})
		if rep.Result.Correct || rep.Result.Failed != 1 {
			t.Errorf("%s: cold run accepted: correct %v, failed %d", name, rep.Result.Correct, rep.Result.Failed)
		}
	}
}

func TestEndToEndMetricsReported(t *testing.T) {
	c, _ := findCase("exact-read")
	rep := measure(c.build(c.tiny, 2, t.TempDir()), plan{setups: 2, minReps: 2})
	if !rep.Result.Correct {
		t.Fatalf("report not correct: %v", rep.Errors)
	}
	res := lastLine(t, rep)
	for _, m := range specNames(t).EndToEnd {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || !(v.Value > 0) {
			t.Errorf("end-to-end metric %s (%s) missing, wrong unit or not positive: %+v", m.Name, m.Unit, v)
		}
	}
	if res.Attempted != 4 || res.Failed != 0 {
		t.Errorf("attempted %d failed %d, want 4 and 0", res.Attempted, res.Failed)
	}
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's catalog
// of workloads and metrics together.
func TestSpecMatchesProgram(t *testing.T) {
	spec := specNames(t)
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if got := strings.Join(wls, ","); got != strings.ReplaceAll(caseNames(), ", ", ",") {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, caseNames())
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var n, u []string
	for _, m := range spec.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range spec.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
}

// TestOrderStatistics pins the helpers to Python's statistics module,
// whose quantiles(values, n=4) defines the spreads the bounds are set
// against.
func TestOrderStatistics(t *testing.T) {
	seq := func(lo, hi int) []float64 {
		var xs []float64
		for i := lo; i <= hi; i++ {
			xs = append(xs, float64(i))
		}
		return xs
	}
	for _, tc := range []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{seq(1, 10), 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, 4, []float64{1, 2, 3}},
		{[]float64{5, 1}, 4, []float64{0, 3, 6}},
		{[]float64{7}, 4, nil},
	} {
		if got := quantiles(tc.xs, tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("quantiles(%v, %d) = %v, want %v", tc.xs, tc.n, got, tc.want)
		}
	}
	if got := p95(seq(1, 210)); math.Abs(got-200.45) > 1e-9 {
		t.Errorf("p95(1..210) = %v, want 200.45", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	s := summarize(seq(1, 10))
	if s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// TestAgree checks the -agree verdicts: two sets within every bound and
// with identical work counters agree; a median past its bound or a
// changed work counter disagrees.
func TestAgree(t *testing.T) {
	dir := t.TempDir()
	spec := specNames(t)
	mk := func(scale float64, events uint64) []report {
		var reps []report
		for _, w := range spec.Workloads {
			for seed := int64(1); seed <= 3; seed++ {
				r := report{Workload: w.Name, Seed: seed, Digest: "d", Work: map[string]uint64{"events": events}}
				r.Result = result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
				for _, m := range spec.EndToEnd {
					r.Result.Metrics[m.Name] = metricValue{Value: scale * float64(seed), Unit: m.Unit}
				}
				reps = append(reps, r)
			}
		}
		return reps
	}
	write := func(name string, reps []report) string {
		p := filepath.Join(dir, name)
		for _, r := range reps {
			if err := appendRecord(p, r); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	a := write("a.jsonl", mk(1, 7))
	for _, tc := range []struct {
		name string
		b    []report
		want int
	}{
		{"same", mk(1.01, 7), 0},
		{"slower", mk(1.5, 7), 1},
		{"work", mk(1, 8), 1},
	} {
		var out bytes.Buffer
		if got := agreeMain(specPath, a, write(tc.name+".jsonl", tc.b), &out); got != tc.want {
			t.Errorf("%s: agreeMain = %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
	if _, err := os.Stat(a); err != nil {
		t.Fatal(err)
	}
}
