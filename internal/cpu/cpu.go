// Package cpu models the processor cores of Table III: 2-wide out-of-order
// cores reduced to the features that matter for a memory-system study.
// A core executes the instruction gaps between memory events at its issue
// width, overlaps independent misses up to an MSHR limit, and serializes
// on dependent loads — so the memory system's latency *and* bandwidth both
// feed back into the core's instruction throughput, which is what the
// paper's speedup numbers measure.
package cpu

import (
	"fmt"

	"accord/internal/memtypes"
	"accord/internal/workloads"
)

// MemorySystem is what a core needs from everything below the SRAM
// hierarchy: reads return their completion cycle; writes (dirty
// writebacks) are fire-and-forget through the write buffer.
type MemorySystem interface {
	Read(at int64, line memtypes.LineAddr) (done int64)
	Write(at int64, line memtypes.LineAddr)
}

// FunctionalMemory is the state-only view of the memory system used by
// functional fast-forwarding (StepFunctional): accesses mutate tags,
// dirty bits, replacement and steering state exactly as the timed path
// would, but carry no timestamps and return no latency. A MemorySystem
// that also implements FunctionalMemory opts the core into functional
// mode.
type FunctionalMemory interface {
	ReadFunctional(line memtypes.LineAddr)
	WriteFunctional(line memtypes.LineAddr)
}

// Params configures a core.
type Params struct {
	IssueWidth int   // instructions per cycle for non-memory work
	MSHRs      int   // maximum outstanding independent misses
	SRAMLat    int64 // L1+L2+L3 lookup cycles on the miss path
}

// DefaultParams returns the Table III core: 2-wide with 8 MSHRs.
func DefaultParams() Params {
	return Params{IssueWidth: 2, MSHRs: 12, SRAMLat: 51}
}

// Validate reports a descriptive error for unusable parameters.
func (p Params) Validate() error {
	if p.IssueWidth < 1 {
		return fmt.Errorf("cpu: issue width %d must be >= 1", p.IssueWidth)
	}
	if p.MSHRs < 1 {
		return fmt.Errorf("cpu: MSHRs %d must be >= 1", p.MSHRs)
	}
	if p.MSHRs > 64 {
		return fmt.Errorf("cpu: MSHRs %d must be <= 64", p.MSHRs)
	}
	if p.SRAMLat < 0 {
		return fmt.Errorf("cpu: SRAM latency %d must be >= 0", p.SRAMLat)
	}
	return nil
}

// Translate maps a virtual line address to a physical one.
type Translate func(memtypes.LineAddr) memtypes.LineAddr

// Core is one processor core consuming its workload stream. It is not
// safe for concurrent use.
type Core struct {
	// Hot per-Step state leads the struct so the common path touches the
	// first cache line or two: the clocks, the widened issue parameters
	// (converted from Params once at construction instead of per event),
	// and the reused event buffer.
	time       int64
	instr      int64
	instCarry  int64
	issueWidth int64           // int64(params.IssueWidth), hoisted off the Step path
	issueMask  int64           // issueWidth-1 when the width is a power of two, else -1
	issueShift uint8           // log2(issueWidth) when issueMask >= 0
	sramLat    int64           // params.SRAMLat
	ev         workloads.Event // reused across Steps; &ev escapes through the Stream interface, so a local would heap-allocate every event
	mshr       []int64         // completion cycles of in-flight misses

	// Same-page translation memo. Page mappings are immutable once
	// allocated (vm never unmaps), so caching the last page's physical
	// base is behavior-identical and short-circuits the page-table walk
	// for the common same-page run of a strided stream. memoVPage starts
	// at the impossible ^0 sentinel; the memo is derived state and is
	// deliberately absent from snapshots (a restored core re-fills it on
	// first use).
	memoVPage memtypes.PageNum
	memoPBase memtypes.LineAddr // physical line 0 of memoVPage's frame

	// Direct-mapped second-level translation memo behind the same-page
	// memo: random-arena traffic changes pages nearly every event, so the
	// single-entry memo thrashes and every such event paid a full
	// page-table walk. Tags are vp+1 so the zero value means empty and
	// invalidation is a plain clear. Like the same-page memo this is pure
	// derived state — mappings are immutable once allocated — but a memo
	// entry implies "this page is already mapped", which restoring an
	// earlier snapshot can falsify (the walk's first-touch allocation
	// draws from the VM RNG), so both memos go cold together in
	// ResetSampleTiming.
	tlbTag   [tlbSize]uint64
	tlbPBase [tlbSize]memtypes.LineAddr

	stream    workloads.Stream
	translate Translate
	mem       MemorySystem
	fmem      FunctionalMemory // mem's functional view; nil when unsupported

	// Batch fast-forward plumbing (see batch.go). wstream/bmem are the
	// stream's and memory system's optional batch views, cached here at
	// construction like fmem; blines is the translated-line scratch batch
	// calls reuse across windows. All nil/empty when either side does not
	// support batching, in which case StepFunctionalBatch degrades to
	// per-event StepFunctional.
	wstream WindowStream
	bmem    BatchFunctionalMemory
	blines  []memtypes.LineAddr

	reads, writes, depStalls, mshrStalls uint64

	// Cold configuration and window marks.
	id        int
	params    Params
	markTime  int64
	markInstr int64
}

// New builds a core. It panics on invalid parameters.
func New(id int, params Params, stream workloads.Stream, translate Translate, mem MemorySystem) *Core {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	w := int64(params.IssueWidth)
	mask, shift := int64(-1), uint8(0)
	if w&(w-1) == 0 {
		mask = w - 1
		for 1<<shift < w {
			shift++
		}
	}
	fmem, _ := mem.(FunctionalMemory)
	wstream, _ := stream.(WindowStream)
	bmem, _ := mem.(BatchFunctionalMemory)
	return &Core{
		wstream:    wstream,
		bmem:       bmem,
		id:         id,
		params:     params,
		memoVPage:  ^memtypes.PageNum(0),
		issueWidth: w,
		issueMask:  mask,
		issueShift: shift,
		sramLat:    params.SRAMLat,
		stream:     stream,
		translate:  translate,
		mem:        mem,
		fmem:       fmem,
		mshr:       make([]int64, params.MSHRs),
	}
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Time returns the core's current cycle.
func (c *Core) Time() int64 { return c.time }

// Instructions returns the total instructions retired.
func (c *Core) Instructions() int64 { return c.instr }

// tlbBits sizes the direct-mapped translation memo: 4096 entries cover
// the scaled workloads' full page footprints and a useful slice of the
// unscaled ones, at 64 KB of host memory per core.
const (
	tlbBits = 12
	tlbSize = 1 << tlbBits
)

// translateLine resolves a virtual line through the same-page memo, then
// the direct-mapped memo, falling back to the full translation walk.
func (c *Core) translateLine(vl memtypes.LineAddr) memtypes.LineAddr {
	vp := vl.Page()
	if vp == c.memoVPage {
		return c.memoPBase + memtypes.LineAddr(vl.PageOffset())
	}
	i := (uint64(vp) * 0x9e3779b97f4a7c15) >> (64 - tlbBits)
	if c.tlbTag[i] == uint64(vp)+1 {
		base := c.tlbPBase[i]
		c.memoVPage, c.memoPBase = vp, base
		return base + memtypes.LineAddr(vl.PageOffset())
	}
	pl := c.translate(vl)
	base := pl - memtypes.LineAddr(vl.PageOffset())
	c.memoVPage, c.memoPBase = vp, base
	c.tlbTag[i] = uint64(vp) + 1
	c.tlbPBase[i] = base
	return pl
}

// Step consumes and executes one workload event.
func (c *Core) Step() {
	ev := &c.ev
	c.stream.Next(ev)

	// Non-memory instructions retire at the issue width; the remainder
	// carries so long-run throughput is exact. instCarry is never
	// negative, so for power-of-two widths the division is a shift.
	c.instCarry += int64(ev.Gap)
	if c.issueMask >= 0 {
		c.time += c.instCarry >> c.issueShift
		c.instCarry &= c.issueMask
	} else {
		c.time += c.instCarry / c.issueWidth
		c.instCarry %= c.issueWidth
	}

	line := c.translateLine(ev.Line)
	switch {
	case ev.Write:
		// Dirty writeback: drains through the write buffer without
		// stalling the core.
		c.writes++
		c.mem.Write(c.time+c.sramLat, line)
	default:
		c.reads++
		slot := c.admit()
		done := c.mem.Read(c.time+c.sramLat, line)
		if ev.Dep {
			// The core cannot run ahead of a dependent load.
			c.depStalls++
			c.time = done
		}
		c.mshr[slot] = done
	}
	c.instr += int64(ev.Gap) + 1
}

// SupportsFunctional reports whether the memory system behind this core
// implements FunctionalMemory, i.e. whether StepFunctional may be used.
func (c *Core) SupportsFunctional() bool { return c.fmem != nil }

// StepFunctional consumes one workload event mutating only functional
// state: the stream cursor, the instruction-carry remainder, the retired
// instruction count, the event-mix counters, and — through the
// FunctionalMemory — every cache tag/dirty/replacement/steering table the
// event would touch in detailed mode. The clock, MSHR occupancy, and all
// latency accounting are skipped, which is what makes it an order of
// magnitude cheaper per event. The functional state it leaves behind is
// byte-identical to what the same events produce under Step.
func (c *Core) StepFunctional() {
	ev := &c.ev
	c.stream.Next(ev)

	// Reduce the issue-width carry exactly as Step does, minus the clock
	// advance: (carry + gap) mod width is unchanged by dropping the
	// quotient, so instCarry stays byte-identical to detailed mode.
	c.instCarry += int64(ev.Gap)
	if c.issueMask >= 0 {
		c.instCarry &= c.issueMask
	} else {
		c.instCarry %= c.issueWidth
	}

	line := c.translateLine(ev.Line)
	if ev.Write {
		c.writes++
		c.fmem.WriteFunctional(line)
	} else {
		c.reads++
		if ev.Dep {
			c.depStalls++
		}
		c.fmem.ReadFunctional(line)
	}
	c.instr += int64(ev.Gap) + 1
}

// admit finds a free MSHR, stalling the core until the oldest outstanding
// miss completes when all are busy: first-free linear scan with a fused
// stall-min search. A free-mask/min-cache discipline measured slower end
// to end — with 12 MSHRs the first free slot is usually at a low index,
// so this scan early-exits in a compare or two, while a mask pays a
// per-insert update and a full resweep every time the clock passes the
// earliest outstanding completion (DESIGN.md §13.4 has the numbers).
func (c *Core) admit() int {
	best := 0
	for i, t := range c.mshr {
		if t <= c.time {
			return i
		}
		if t < c.mshr[best] {
			best = i
		}
	}
	// All busy: wait for the earliest completion.
	c.mshrStalls++
	c.time = c.mshr[best]
	return best
}

// MarkWindow starts a measurement window at the current point; IPC is
// reported relative to the latest mark (used to exclude warmup).
func (c *Core) MarkWindow() {
	c.markTime = c.time
	c.markInstr = c.instr
}

// WindowInstructions returns instructions retired since the last mark.
func (c *Core) WindowInstructions() int64 { return c.instr - c.markInstr }

// WindowCycles returns cycles elapsed since the last mark.
func (c *Core) WindowCycles() int64 { return c.time - c.markTime }

// IPC returns instructions per cycle since the last mark.
func (c *Core) IPC() float64 {
	cyc := c.WindowCycles()
	if cyc <= 0 {
		return 0
	}
	return float64(c.WindowInstructions()) / float64(cyc)
}

// Counters reports the core's event counts (reads, writes, dependent-load
// stalls, MSHR-full stalls).
func (c *Core) Counters() (reads, writes, depStalls, mshrStalls uint64) {
	return c.reads, c.writes, c.depStalls, c.mshrStalls
}
