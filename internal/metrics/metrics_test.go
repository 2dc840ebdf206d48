package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 1
	buckets := []uint64{1, 0}
	r.CounterFunc("c", "", func() uint64 { return c })
	r.HistogramFunc("h", "", []float64{1}, func() HistogramValue {
		return HistogramValue{Count: buckets[0] + buckets[1], Buckets: append([]uint64(nil), buckets...)}
	})
	s := r.Snapshot()
	c += 100
	buckets[1]++
	if s.Counter("c") != 1 {
		t.Error("snapshot mutated by later counter updates")
	}
	if h, _ := s.Get("h"); h.Count != 1 || h.Buckets[1] != 0 {
		t.Errorf("snapshot mutated by later histogram updates: %+v", h)
	}
}

func TestRegistryOrderAndSchema(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("b", "second", func() uint64 { return 0 })
	r.GaugeFunc("a", "first", func() float64 { return 0 })
	r.HistogramFunc("c", "third", []float64{1}, func() HistogramValue {
		return HistogramValue{Buckets: []uint64{0, 0}}
	})
	var names []string
	for _, in := range r.Schema() {
		names = append(names, in.Name)
	}
	// Registration order, not lexical order.
	if got := strings.Join(names, ","); got != "b,a,c" {
		t.Errorf("schema order = %s, want b,a,c", got)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x", "", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("x", "", func() float64 { return 0 })
}

func TestFuncViews(t *testing.T) {
	var backing uint64 = 7
	ratio := math.NaN()
	r := NewRegistry()
	r.CounterFunc("v", "view", func() uint64 { return backing })
	r.GaugeFunc("ratio", "maybe undefined", func() float64 { return ratio })

	s := r.Snapshot()
	if s.Counter("v") != 7 {
		t.Errorf("counter view = %d, want 7", s.Counter("v"))
	}
	if _, ok := s.Gauge("ratio"); ok {
		t.Error("NaN gauge reported as defined")
	}
	backing, ratio = 9, 0
	s = r.Snapshot()
	if s.Counter("v") != 9 {
		t.Errorf("counter view after update = %d, want 9", s.Counter("v"))
	}
	if v, ok := s.Gauge("ratio"); !ok || v != 0 {
		t.Errorf("zero gauge = %v,%v, want 0,true — 0 must stay distinguishable from undefined", v, ok)
	}
}

// TestUndefinedGaugeJSON locks the NaN-or-ok export contract: an
// undefined gauge omits its value in JSON while a genuine zero keeps it.
func TestUndefinedGaugeJSON(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("undef", "", func() float64 { return math.NaN() })
	r.GaugeFunc("zero", "", func() float64 { return 0 })
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Values []map[string]interface{} `json:"values"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	for _, v := range parsed.Values {
		_, has := v["value"]
		switch v["name"] {
		case "undef":
			if has {
				t.Errorf("undefined gauge exported a value: %v", v["value"])
			}
		case "zero":
			if !has || v["value"].(float64) != 0 {
				t.Errorf("zero gauge lost its value: %v", v)
			}
		}
	}
}

func TestSeriesTick(t *testing.T) {
	r := NewRegistry()
	var n uint64
	r.CounterFunc("n", "", func() uint64 { return n })
	s := NewSeries(r, 100)

	if s.Tick(50, 10) {
		t.Error("sampled before the first epoch boundary")
	}
	n++
	if !s.Tick(100, 20) {
		t.Error("did not sample at the epoch boundary")
	}
	// A jump across several epochs records one sample and advances past.
	n++
	if !s.Tick(350, 70) {
		t.Error("did not sample after a multi-epoch jump")
	}
	if s.Tick(399, 80) {
		t.Error("sampled again before the next boundary (400)")
	}
	d := s.Data()
	if d.EveryInstr != 100 || len(d.Samples) != 2 {
		t.Fatalf("series = every %d, %d samples; want 100, 2", d.EveryInstr, len(d.Samples))
	}
	if d.Samples[0].Epoch != 0 || d.Samples[1].Epoch != 1 {
		t.Error("epochs not consecutive from 0")
	}
	if d.Samples[0].Instructions != 100 || d.Samples[1].Instructions != 350 {
		t.Errorf("sample clocks = %d,%d, want 100,350",
			d.Samples[0].Instructions, d.Samples[1].Instructions)
	}
	if got := (Snapshot{Values: d.Samples[1].Values}).Counter("n"); got != 2 {
		t.Errorf("sample 1 counter = %d, want 2", got)
	}

	// A nil series is a valid no-op sampler.
	var nilSeries *Series
	if nilSeries.Tick(1000, 1) || nilSeries.Len() != 0 {
		t.Error("nil series not a no-op")
	}
}

func TestExportCSV(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("c", "", func() uint64 { return 5 })
	r.GaugeFunc("undef", "", func() float64 { return math.NaN() })
	r.HistogramFunc("h", "", []float64{2, 4}, func() HistogramValue {
		return HistogramValue{Count: 2, Sum: 4, Buckets: []uint64{1, 1, 0}}
	})

	ex := &Export{Runs: []Run{{
		Config: "cfg", Workload: "wl", Instructions: 10, Cycles: 20,
		Metrics: &RunMetrics{Final: r.Snapshot()},
	}}}
	var buf bytes.Buffer
	if err := ex.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 metrics
		t.Fatalf("got %d CSV lines, want 4:\n%s", len(lines), buf.String())
	}
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Errorf("header = %s", lines[0])
	}
	if !strings.Contains(lines[1], "c,counter,,5,,") {
		t.Errorf("counter row = %s", lines[1])
	}
	// Undefined gauge exports an empty value cell, not 0.
	if !strings.Contains(lines[2], "undef,gauge,,,,") {
		t.Errorf("undefined gauge row = %s", lines[2])
	}
	if !strings.Contains(lines[3], "h,histogram,,2,4,1;1;0") {
		t.Errorf("histogram row = %s", lines[3])
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("c", "", func() uint64 { return 1 })
	man := NewManifest("test", map[string]int{"scale": 256}, 7)
	man.Finish()
	ex := &Export{Manifest: man, Runs: []Run{{Config: "a", Workload: "b",
		Metrics: &RunMetrics{Final: r.Snapshot()}}}}

	var buf bytes.Buffer
	if err := ex.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Manifest == nil || back.Manifest.Tool != "test" || back.Manifest.Seed != 7 {
		t.Errorf("manifest did not round-trip: %+v", back.Manifest)
	}
	if back.Manifest.GitDescribe == "" || back.Manifest.GoVersion == "" {
		t.Error("manifest missing provenance fields")
	}
	if len(back.Runs) != 1 || back.Runs[0].Metrics.Final.Counter("c") != 1 {
		t.Error("runs did not round-trip")
	}
}

func TestPowerOfTwoBounds(t *testing.T) {
	b := PowerOfTwoBounds(3)
	want := []float64{2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}
