package cpu

import (
	"accord/internal/memtypes"
	"accord/internal/workloads"
)

// WindowStream is how a core reads its workload stream: the stream's
// next events as parallel slices, which the core scans without a
// per-event call, then commits how many it actually used. Every stream
// package workloads builds serves one: the trace-cache cursor serves the
// rest of its recorded chunk, the generator and FixedStream one event at
// a time.
type WindowStream interface {
	// Window returns the stream's next events as parallel slices (never
	// empty for an unbounded stream). The slices alias stream-owned
	// memory and are invalidated by Consume.
	Window() (gaps []int32, lines []memtypes.LineAddr, flags []uint8)
	// Consume advances the stream past the first n events of the last
	// returned window.
	Consume(n int)
}

// BatchFunctionalMemory is the functional view of a core's memory
// system: one call applies a run of functional accesses, where
// flags[i]&workloads.FlagWrite selects a functional write (other flag
// bits are ignored). Accesses mutate tags, dirty bits, replacement and
// steering state exactly as the timed path would, but carry no
// timestamps. Both of sim's memory adapters implement it.
type BatchFunctionalMemory interface {
	BatchFunctional(lines []memtypes.LineAddr, flags []uint8)
}

// Compile-time pins of the flag-bit positions StepFunctionalBatch's
// branch-free event counting relies on (division by zero here means the
// workloads flag encoding moved).
const (
	_ = 1 / (workloads.FlagWrite & 1)      // FlagWrite must be bit 0
	_ = 1 / ((workloads.FlagDep >> 1) & 1) // FlagDep must be bit 1
)

// StepFunctionalBatch advances functional execution toward the absolute
// instruction target. Each call reads one stream window and consumes at
// least one of its events, stopping at the first whose retirement
// reaches the target, so a multi-core driver can interleave cores. It is
// the core's only functional event body: the consumed events mutate only
// functional state — the stream position, the instruction-carry
// remainder, the retired instruction count, the event-mix counters, and,
// through one BatchFunctional call, every cache tag/dirty/replacement/
// steering table the events would touch in detailed mode. The clock,
// MSHR occupancy and all latency accounting are skipped. The functional
// state it leaves behind is byte-identical to what StepRun leaves after
// the same events: the issue-width carry is reduced with the same
// modulus (the remainder (a+Σg) mod w is exactly the chained per-event
// remainder; only the dropped clock term differs), and the event-mix
// counters count the same events. The memory system must implement
// BatchFunctionalMemory.
func (c *Core) StepFunctionalBatch(target int64) {
	gaps, lines, flags := c.wstream.Window()
	if cap(c.blines) < len(gaps) {
		c.blines = make([]memtypes.LineAddr, len(gaps))
	}
	blines := c.blines[:len(gaps)]
	// Reslice the parallel windows to the gaps length so the compiler can
	// prove every per-event index in the scan below is in bounds.
	lines = lines[:len(gaps)]
	flags = flags[:len(gaps)]

	// Scan the window, stopping exactly at the first event whose
	// retirement reaches the target, as StepRun does. The event-mix
	// counters are computed branch-free (flag bits are random
	// enough to mispredict), and the same-page memo check is inlined with
	// the memo in locals so a memo hit costs no call.
	instr := c.instr
	gapSum := int64(0)
	reads, writes, depStalls := uint64(0), uint64(0), uint64(0)
	memoV, memoB := c.memoVPage, c.memoPBase
	used := 0
	for i := range gaps {
		g := int64(gaps[i])
		gapSum += g
		instr += g + 1
		w := uint64(flags[i] & workloads.FlagWrite)  // 0 or 1 (bit 0)
		d := uint64(flags[i]&workloads.FlagDep) >> 1 // 0 or 1 (bit 1)
		writes += w
		reads += 1 - w
		depStalls += d &^ w // dep stalls count on reads only
		vl := lines[i]
		if vp := vl.Page(); vp == memoV {
			blines[i] = memoB + memtypes.LineAddr(vl.PageOffset())
		} else {
			blines[i] = c.translateLine(vl)
			memoV, memoB = c.memoVPage, c.memoPBase
		}
		used = i + 1
		if instr >= target {
			break
		}
	}

	// Reduce the carry once for the whole run: ((a+g1) mod w + g2) mod w
	// == (a+g1+g2) mod w, inductively for any run length.
	c.instCarry = (c.instCarry + gapSum) & c.issueMask
	c.reads += reads
	c.writes += writes
	c.depStalls += depStalls
	c.bmem.BatchFunctional(blines[:used], flags[:used])
	c.wstream.Consume(used)
	c.instr = instr
}

// ResetSampleTiming discards the core's timing state, leaving it as a
// freshly constructed core that has already retired the current
// functional state: clock at zero, MSHRs idle, MSHR-stall count zero,
// window marks at the current position, translation memo cold. Interval
// sampling calls this at every detailed-window boundary so each
// measured window starts from the same canonical timing state whether
// it runs in place on the spine's System or on a restored fork —
// that shared canonical start is what makes sequential and parallel
// sampled runs byte-identical (DESIGN.md §12).
func (c *Core) ResetSampleTiming() {
	c.time = 0
	for i := range c.mshr {
		c.mshr[i] = 0
	}
	c.mshrStalls = 0
	c.markTime = 0
	c.markInstr = c.instr
	c.dropMemos()
}

// dropMemos empties both translation memos.
func (c *Core) dropMemos() {
	c.memoVPage = ^memtypes.PageNum(0)
	clear(c.tlbTag[:])
}

// SetSampledFinal imposes the committed aggregates of a sampled run on
// the core so post-run accessors (Instructions, Counters, IPC, window
// gauges) and the metrics registry report the deterministic committed
// totals rather than whatever timing state the last interval left
// behind. winInstr/winCycles are the summed measured-window
// instructions and cycles, exposed as the current window.
func (c *Core) SetSampledFinal(instr int64, reads, writes, depStalls, mshrStalls uint64, winInstr, winCycles int64) {
	c.instr = instr
	c.reads = reads
	c.writes = writes
	c.depStalls = depStalls
	c.mshrStalls = mshrStalls
	c.markInstr = instr - winInstr
	c.time = winCycles
	c.markTime = 0
}
