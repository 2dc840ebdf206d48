// Package workloads synthesizes the memory access streams the paper
// evaluates on. Real SPEC-2006/GAP/HPC traces cannot be shipped, so each
// named workload is a generator preset reproducing the characteristics
// Table IV reports — L3 MPKI, memory footprint relative to the 4 GB cache,
// and sensitivity to associativity — plus the two properties the ACCORD
// mechanisms exploit: page-level spatial locality (for ganged
// way-steering) and set-conflict intensity (for way associativity).
//
// Each stream models the post-L3 miss stream of one core: events carry
// the instruction gap since the previous L3 miss (derived from MPKI), a
// virtual line address, a write flag (dirty-writeback fraction), and a
// dependence flag (whether the load serializes the core).
package workloads

import (
	"accord/internal/xrand"
	"fmt"

	"accord/internal/memtypes"
)

// Event is one post-L3 memory event of a core.
type Event struct {
	// Gap is the number of non-memory-system instructions executed since
	// the previous event.
	Gap int32
	// Line is the virtual line address accessed.
	Line memtypes.LineAddr
	// Write marks the event as producing a dirty writeback toward the
	// DRAM cache rather than a demand read.
	Write bool
	// Dep marks a load the core cannot proceed past until data returns
	// (a pointer-chase-like critical dependence).
	Dep bool
}

// Stream is an unbounded event source; the simulator decides when to stop.
type Stream interface {
	Next(ev *Event)
}

// Flag bits of the struct-of-arrays event encoding that stream windows
// and trace-cache chunks carry (Next unpacks them into Event bools).
const (
	FlagWrite uint8 = 1 << 0
	FlagDep   uint8 = 1 << 1
)

// oneWindow is the one-event window the generator and FixedStream serve
// (cpu.WindowStream): one event in the struct-of-arrays encoding, held
// in the stream so the returned slices alias it without allocating.
type oneWindow struct {
	gap  [1]int32
	line [1]memtypes.LineAddr
	flag [1]uint8
}

func (w *oneWindow) slices() ([]int32, []memtypes.LineAddr, []uint8) {
	return w.gap[:], w.line[:], w.flag[:]
}

// Component is one constituent access pattern of a workload.
type Component struct {
	// Weight is the fraction of accesses this component receives.
	Weight float64
	// SizeRatio is the component's total footprint (across all cores in
	// rate mode) as a fraction of the DRAM cache capacity.
	SizeRatio float64
	// StrideLines selects the reference order over the footprint:
	//   1   — sequential cyclic scan (maximal spatial locality),
	//   k>1 — cyclic permutation walk with the given stride (cyclic reuse
	//         with little spatial locality),
	//   0   — uniform random re-reference (no cyclic structure).
	StrideLines uint64
}

// Spec parameterizes one core's generator.
type Spec struct {
	Name string
	// MPKI is the L3 miss rate this stream models; the mean instruction
	// gap between events is 1000/MPKI.
	MPKI float64
	// WriteFrac is the fraction of events that are dirty writebacks.
	WriteFrac float64
	// DepFrac is the fraction of reads that serialize the core.
	DepFrac float64
	// Components must have weights summing to ~1.
	Components []Component
}

// Validate reports a descriptive error for an unusable spec.
func (s Spec) Validate() error {
	if s.MPKI <= 0 {
		return fmt.Errorf("workload %s: MPKI %v must be positive", s.Name, s.MPKI)
	}
	if s.WriteFrac < 0 || s.WriteFrac > 1 || s.DepFrac < 0 || s.DepFrac > 1 {
		return fmt.Errorf("workload %s: fractions out of range", s.Name)
	}
	if len(s.Components) == 0 {
		return fmt.Errorf("workload %s: no components", s.Name)
	}
	total := 0.0
	for i, c := range s.Components {
		if c.Weight < 0 || c.SizeRatio <= 0 {
			return fmt.Errorf("workload %s: component %d has weight %v ratio %v", s.Name, i, c.Weight, c.SizeRatio)
		}
		total += c.Weight
	}
	if total < 0.99 || total > 1.01 {
		return fmt.Errorf("workload %s: component weights sum to %v", s.Name, total)
	}
	return nil
}

// componentState is the runtime cursor of one component.
type componentState struct {
	base   memtypes.LineAddr // VA base of this component's arena
	lines  uint64
	stride uint64 // 0 = random
	pos    uint64
}

// generator implements Stream for a Spec.
type generator struct {
	spec     Spec
	rng      *xrand.Rand
	meanGap  float64
	cum      []float64 // cumulative component weights
	cumTotal float64   // cum[len(cum)-1], hoisted off the per-event path
	comps    []componentState
	// count is the number of events generated so far. It participates in
	// the checkpoint encoding so a trace-cache replay cursor — whose only
	// mutable state is its position — snapshots byte-identically to the
	// generator it replays (see tracecache.go).
	count int64
	// win is the window Window serves; held marks its event drawn but
	// not yet consumed.
	win  oneWindow
	held bool
}

// gcd returns the greatest common divisor of a and b.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// StreamSeed derives the per-core stream seed from a simulation seed.
// Every stream constructor (sim.New, the trace cache, tests) must use the
// same derivation or identically configured runs would diverge.
func StreamSeed(seed int64, core int) int64 { return seed*1000 + int64(core) }

// NewStream builds the event stream for spec on one of `cores` cores of a
// system whose DRAM cache holds cacheLines lines. Component footprints are
// split evenly across cores (rate mode semantics); seed individualizes the
// core's reference order.
func NewStream(spec Spec, cacheLines uint64, cores int, seed int64) Stream {
	return newGenerator(spec, cacheLines, cores, seed)
}

// newGenerator is NewStream with a concrete return type; the trace cache
// needs the generator's snapshot machinery.
func newGenerator(spec Spec, cacheLines uint64, cores int, seed int64) *generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if cores < 1 {
		cores = 1
	}
	g := &generator{
		spec:    spec,
		rng:     xrand.New(seed),
		meanGap: 1000 / spec.MPKI,
	}
	total := 0.0
	for i, c := range spec.Components {
		total += c.Weight
		g.cum = append(g.cum, total)
		lines := uint64(c.SizeRatio * float64(cacheLines) / float64(cores))
		if lines < memtypes.LinesPerRegion {
			lines = memtypes.LinesPerRegion
		}
		stride := c.StrideLines
		if stride > 0 {
			// Force the stride coprime with the footprint so a cyclic
			// walk visits every line exactly once per cycle.
			for gcd(stride, lines) != 1 {
				stride++
			}
			// Reduce into [0, lines) so Next can advance the cursor with
			// a conditional subtract instead of a divide; (pos+stride)
			// mod lines is unchanged by reducing stride mod lines.
			stride %= lines
		}
		g.comps = append(g.comps, componentState{
			// Each component roams a disjoint virtual arena.
			base:   memtypes.LineAddr(uint64(i+1) << 36),
			lines:  lines,
			stride: stride,
			pos:    uint64(g.rng.Int63()) % lines,
		})
	}
	g.cumTotal = g.cum[len(g.cum)-1]
	return g
}

// draw generates the next event in the struct-of-arrays encoding.
func (g *generator) draw() (gap int32, line memtypes.LineAddr, flags uint8) {
	// Exponential instruction gaps reproduce the bursty arrival process of
	// real miss streams while matching the configured MPKI in expectation.
	gf := g.rng.ExpFloat64() * g.meanGap
	if gf > 1e6 {
		gf = 1e6
	}

	// Pick a component by weight.
	x := g.rng.Float64() * g.cumTotal
	cum := g.cum
	ci := 0
	for ci < len(cum)-1 && x > cum[ci] {
		ci++
	}
	c := &g.comps[ci]

	var off uint64
	if c.stride == 0 {
		off = uint64(g.rng.Int63()) % c.lines
	} else {
		// stride and pos are both < lines, so one conditional subtract
		// replaces the modulo.
		p := c.pos + c.stride
		if p >= c.lines {
			p -= c.lines
		}
		c.pos = p
		off = p
	}
	// Writes never serialize the core, so only reads draw a dependence.
	if g.rng.Float64() < g.spec.WriteFrac {
		flags = FlagWrite
	} else if g.rng.Float64() < g.spec.DepFrac {
		flags = FlagDep
	}
	g.count++
	return int32(gf), c.base + memtypes.LineAddr(off), flags
}

// Window implements cpu.WindowStream with a one-event window: the next
// event, drawn straight into the window's slices, served again until
// Consume retires it. The draw has already advanced the generator, so
// the window must be consumed before the stream is snapshot or copied;
// the cores consume at least one event of every window they read.
func (g *generator) Window() ([]int32, []memtypes.LineAddr, []uint8) {
	if !g.held {
		g.win.gap[0], g.win.line[0], g.win.flag[0] = g.draw()
		g.held = true
	}
	return g.win.slices()
}

// Consume implements cpu.WindowStream: n of 1 retires the window's event.
func (g *generator) Consume(n int) {
	if n > 0 {
		g.held = false
	}
}

// Next implements Stream.
func (g *generator) Next(ev *Event) {
	gaps, lines, flags := g.Window()
	*ev = Event{Gap: gaps[0], Line: lines[0], Write: flags[0]&FlagWrite != 0, Dep: flags[0]&FlagDep != 0}
	g.Consume(1)
}

// FixedStream replays a fixed slice of events cyclically; used by tests,
// trace replay and the cyclic-reference kernel experiments.
type FixedStream struct {
	Events []Event
	pos    int
	win    oneWindow
}

// Next implements Stream.
func (f *FixedStream) Next(ev *Event) {
	*ev = f.Events[f.pos%len(f.Events)]
	f.pos++
}

// Window implements cpu.WindowStream with a one-event window over the
// next event.
func (f *FixedStream) Window() ([]int32, []memtypes.LineAddr, []uint8) {
	ev := &f.Events[f.pos%len(f.Events)]
	var flags uint8
	if ev.Write {
		flags |= FlagWrite
	}
	if ev.Dep {
		flags |= FlagDep
	}
	f.win.gap[0], f.win.line[0], f.win.flag[0] = ev.Gap, ev.Line, flags
	return f.win.slices()
}

// Consume implements cpu.WindowStream: it advances past n events.
func (f *FixedStream) Consume(n int) { f.pos += n }
