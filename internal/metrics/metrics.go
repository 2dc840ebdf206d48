// Package metrics is the simulator's observability substrate: a typed
// registry of named counters, gauges, and fixed-bucket histograms that
// every component (cores, SRAM hierarchy, DRAM cache, memory devices, way
// policies) registers into, plus per-epoch time-series sampling driven by
// the simulator clock and machine-readable JSON/CSV export.
//
// Every metric is a view (CounterFunc, GaugeFunc, HistogramFunc): it reads
// an existing component's statistics through a closure, so a component
// keeps its cheap plain-struct counters on the simulation hot path and
// the registry becomes the single export surface over them.
//
// Undefined values are first-class: a gauge whose closure returns NaN (a
// ratio with a zero denominator, say) exports as an *absent* value in
// JSON and an empty cell in CSV, distinguishable from a real 0 — see
// stats.RatioOK and stats.NaNIfUndefined for the producing side.
package metrics

import (
	"fmt"
	"math"
	"sync"
)

// Kind classifies a metric.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one metric's exported state at a sampling instant. Exactly the
// fields meaningful for the metric's kind are populated:
//
//   - counter:   Count
//   - gauge:     Value, nil when the gauge is undefined (NaN/Inf)
//   - histogram: Count (== sum of Buckets), Sum, Buckets
type Value struct {
	Name string `json:"name"`
	Kind string `json:"kind"`

	Value   *float64 `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// HistogramValue is the state a HistogramFunc view must produce.
type HistogramValue struct {
	Count   uint64
	Sum     float64
	Buckets []uint64 // len(bounds)+1; the last bucket is overflow
}

// Info describes one registered metric; Registry.Schema returns these.
type Info struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Help   string    `json:"help,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"` // histogram upper bounds
}

// metric is the internal read interface every registered metric satisfies.
type metric interface {
	info() Info
	read() Value
}

// Registry is an ordered, named set of metrics. Registration order is the
// export order, so snapshots are deterministic. Registration and Snapshot
// are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	byName map[string]struct{}
	order  []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// register panics on duplicate or empty names: metric identity is the
// export contract, so a collision is always a programming error.
func (r *Registry) register(name string, m metric) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.byName[name] = struct{}{}
	r.order = append(r.order, m)
}

// CounterFunc registers a counter view over fn. The closure is invoked
// during Snapshot only; it must be cheap and must not block.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, counterFunc{name: name, help: help, fn: fn})
}

// GaugeFunc registers a gauge view over fn. A NaN or infinite return
// exports as an undefined (absent) value.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, gaugeFunc{name: name, help: help, fn: fn})
}

// HistogramFunc registers a histogram view over fn; the returned Buckets
// must have len(bounds)+1 entries (the last being overflow).
func (r *Registry) HistogramFunc(name, help string, bounds []float64, fn func() HistogramValue) {
	r.register(name, histogramFunc{name: name, help: help, bounds: append([]float64(nil), bounds...), fn: fn})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// Schema describes every registered metric in registration order.
func (r *Registry) Schema() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, len(r.order))
	for i, m := range r.order {
		out[i] = m.info()
	}
	return out
}

// Snapshot reads every metric in registration order. The result is a
// self-contained copy: later metric updates never mutate it.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Values: make([]Value, len(r.order))}
	for i, m := range r.order {
		s.Values[i] = m.read()
	}
	return s
}

// Snapshot is one point-in-time reading of a whole registry.
type Snapshot struct {
	Values []Value `json:"values"`
}

// Get returns the named value.
func (s Snapshot) Get(name string) (Value, bool) {
	for _, v := range s.Values {
		if v.Name == name {
			return v, true
		}
	}
	return Value{}, false
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 {
	v, _ := s.Get(name)
	return v.Count
}

// Gauge returns the named gauge's value and whether it is defined.
func (s Snapshot) Gauge(name string) (float64, bool) {
	v, ok := s.Get(name)
	if !ok || v.Value == nil {
		return 0, false
	}
	return *v.Value, true
}

type counterFunc struct {
	name, help string
	fn         func() uint64
}

func (c counterFunc) info() Info { return Info{Name: c.name, Kind: KindCounter.String(), Help: c.help} }
func (c counterFunc) read() Value {
	return Value{Name: c.name, Kind: KindCounter.String(), Count: c.fn()}
}

type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g gaugeFunc) info() Info  { return Info{Name: g.name, Kind: KindGauge.String(), Help: g.help} }
func (g gaugeFunc) read() Value { return gaugeValue(g.name, g.fn()) }

type histogramFunc struct {
	name, help string
	bounds     []float64
	fn         func() HistogramValue
}

func (h histogramFunc) info() Info {
	return Info{Name: h.name, Kind: KindHistogram.String(), Help: h.help, Bounds: append([]float64(nil), h.bounds...)}
}

func (h histogramFunc) read() Value {
	hv := h.fn()
	return Value{Name: h.name, Kind: KindHistogram.String(), Count: hv.Count, Sum: hv.Sum, Buckets: hv.Buckets}
}

// gaugeValue builds a gauge Value, mapping NaN/Inf to "undefined".
func gaugeValue(name string, v float64) Value {
	out := Value{Name: name, Kind: KindGauge.String()}
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		out.Value = &v
	}
	return out
}
