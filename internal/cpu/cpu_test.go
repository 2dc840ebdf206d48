package cpu

import (
	"math/rand"
	"testing"

	"accord/internal/memtypes"
	"accord/internal/workloads"
)

// fakeMem is a fixed-latency memory with request counting.
type fakeMem struct {
	lat    int64
	reads  int
	writes int
	lastAt int64
}

func (m *fakeMem) Read(at int64, line memtypes.LineAddr) int64 {
	m.reads++
	m.lastAt = at
	return at + m.lat
}

func (m *fakeMem) Write(at int64, line memtypes.LineAddr) {
	m.writes++
	m.lastAt = at
}

func ident(l memtypes.LineAddr) memtypes.LineAddr { return l }

func events(evs ...workloads.Event) workloads.Stream {
	return &workloads.FixedStream{Events: evs}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{IssueWidth: 0, MSHRs: 1},
		{IssueWidth: 3, MSHRs: 1},
		{IssueWidth: 1, MSHRs: 0},
		{IssueWidth: 1, MSHRs: 1, SRAMLat: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(0, Params{}, events(workloads.Event{}), ident, &fakeMem{})
}

// nextOnly is a Stream that serves no window.
type nextOnly struct{}

func (nextOnly) Next(ev *workloads.Event) { *ev = workloads.Event{Gap: 1, Line: 1} }

func TestNewRejectsStreamWithoutWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(0, DefaultParams(), nextOnly{}, ident, &fakeMem{})
}

func TestGapRetiresAtIssueWidth(t *testing.T) {
	mem := &fakeMem{lat: 0}
	c := New(0, Params{IssueWidth: 2, MSHRs: 4, SRAMLat: 0},
		events(workloads.Event{Gap: 100, Line: 1}), ident, mem)
	c.Step()
	// 100 instructions at width 2 = 50 cycles; the access itself is free.
	if c.Time() != 50 {
		t.Errorf("time = %d, want 50", c.Time())
	}
	if c.Instructions() != 101 {
		t.Errorf("instructions = %d, want 101", c.Instructions())
	}
}

func TestIssueWidthRemainderCarries(t *testing.T) {
	mem := &fakeMem{lat: 0}
	c := New(0, Params{IssueWidth: 2, MSHRs: 4, SRAMLat: 0},
		events(workloads.Event{Gap: 1, Line: 1}), ident, mem)
	// 4 events of gap 1 = 4 instructions = 2 cycles at width 2.
	for i := 0; i < 4; i++ {
		c.Step()
	}
	if c.Time() != 2 {
		t.Errorf("time = %d, want 2 (remainder must carry)", c.Time())
	}
}

func TestDependentLoadSerializes(t *testing.T) {
	mem := &fakeMem{lat: 100}
	c := New(0, Params{IssueWidth: 2, MSHRs: 4, SRAMLat: 10},
		events(workloads.Event{Gap: 0, Line: 1, Dep: true}), ident, mem)
	c.Step()
	// Dependent: core time = issue(0) + sram(10) + lat(100).
	if c.Time() != 110 {
		t.Errorf("time = %d, want 110", c.Time())
	}
	_, _, dep, _ := c.Counters()
	if dep != 1 {
		t.Errorf("dep stalls = %d, want 1", dep)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	mem := &fakeMem{lat: 1000}
	c := New(0, Params{IssueWidth: 2, MSHRs: 8, SRAMLat: 0},
		events(workloads.Event{Gap: 0, Line: 1}), ident, mem)
	for i := 0; i < 8; i++ {
		c.Step()
	}
	// All 8 fit in MSHRs; the core never waited.
	if c.Time() != 0 {
		t.Errorf("time = %d, want 0 (full overlap)", c.Time())
	}
	_, _, _, stalls := c.Counters()
	if stalls != 0 {
		t.Errorf("mshr stalls = %d, want 0", stalls)
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	mem := &fakeMem{lat: 1000}
	c := New(0, Params{IssueWidth: 2, MSHRs: 2, SRAMLat: 0},
		events(workloads.Event{Gap: 0, Line: 1}), ident, mem)
	c.Step()
	c.Step()
	c.Step() // third must wait for the first to complete at t=1000
	if c.Time() != 1000 {
		t.Errorf("time = %d, want 1000", c.Time())
	}
	_, _, _, stalls := c.Counters()
	if stalls != 1 {
		t.Errorf("mshr stalls = %d, want 1", stalls)
	}
}

func TestWritesDoNotStall(t *testing.T) {
	mem := &fakeMem{lat: 99999}
	c := New(0, Params{IssueWidth: 1, MSHRs: 1, SRAMLat: 5},
		events(workloads.Event{Gap: 10, Line: 1, Write: true}), ident, mem)
	c.Step()
	if c.Time() != 10 {
		t.Errorf("time = %d, want 10 (write must not stall)", c.Time())
	}
	if mem.writes != 1 || mem.reads != 0 {
		t.Errorf("mem saw %d writes %d reads", mem.writes, mem.reads)
	}
}

func TestSRAMLatencyAppliedToIssue(t *testing.T) {
	mem := &fakeMem{lat: 0}
	c := New(0, Params{IssueWidth: 2, MSHRs: 4, SRAMLat: 51},
		events(workloads.Event{Gap: 0, Line: 1}), ident, mem)
	c.Step()
	if mem.lastAt != 51 {
		t.Errorf("memory saw request at %d, want 51", mem.lastAt)
	}
}

func TestTranslationApplied(t *testing.T) {
	mem := &fakeMem{lat: 0}
	var seen memtypes.LineAddr
	spy := func(l memtypes.LineAddr) memtypes.LineAddr {
		seen = l
		return l + 1000
	}
	recorder := &recordMem{}
	c := New(0, Params{IssueWidth: 2, MSHRs: 4, SRAMLat: 0},
		events(workloads.Event{Gap: 0, Line: 7}), spy, recorder)
	c.Step()
	_ = mem
	if seen != 7 {
		t.Errorf("translate saw %d, want 7", seen)
	}
	if recorder.line != 1007 {
		t.Errorf("memory saw line %d, want 1007", recorder.line)
	}
}

type recordMem struct{ line memtypes.LineAddr }

func (m *recordMem) Read(at int64, line memtypes.LineAddr) int64 {
	m.line = line
	return at
}
func (m *recordMem) Write(at int64, line memtypes.LineAddr) { m.line = line }

func TestIPCWindow(t *testing.T) {
	mem := &fakeMem{lat: 0}
	c := New(0, Params{IssueWidth: 1, MSHRs: 4, SRAMLat: 0},
		events(workloads.Event{Gap: 9, Line: 1}), ident, mem)
	c.Step() // 10 instructions in 9 cycles
	c.MarkWindow()
	if c.IPC() != 0 {
		t.Errorf("IPC immediately after mark = %v, want 0", c.IPC())
	}
	c.Step()
	if c.WindowInstructions() != 10 || c.WindowCycles() != 9 {
		t.Errorf("window = %d instr / %d cycles", c.WindowInstructions(), c.WindowCycles())
	}
	if got := c.IPC(); got < 1.1 || got > 1.12 {
		t.Errorf("IPC = %v, want ~10/9", got)
	}
}

func TestIPCBoundedByIssueWidth(t *testing.T) {
	mem := &fakeMem{lat: 0}
	c := New(0, Params{IssueWidth: 2, MSHRs: 8, SRAMLat: 0},
		events(workloads.Event{Gap: 500, Line: 1}), ident, mem)
	c.MarkWindow()
	for i := 0; i < 100; i++ {
		c.Step()
	}
	if ipc := c.IPC(); ipc > 2.01 {
		t.Errorf("IPC = %v exceeds issue width 2", ipc)
	}
}

func TestTimeMonotoneUnderRandomStreams(t *testing.T) {
	// Core time and instruction counts never regress, whatever the event
	// mix looks like.
	r := rand.New(rand.NewSource(17))
	evs := make([]workloads.Event, 500)
	for i := range evs {
		evs[i] = workloads.Event{
			Gap:   int32(r.Intn(100)),
			Line:  memtypes.LineAddr(r.Intn(1 << 20)),
			Write: r.Intn(4) == 0,
			Dep:   r.Intn(3) == 0,
		}
	}
	mem := &fakeMem{lat: 250}
	c := New(0, DefaultParams(), &workloads.FixedStream{Events: evs}, ident, mem)
	prevT, prevI := c.Time(), c.Instructions()
	for i := 0; i < 5000; i++ {
		c.Step()
		if c.Time() < prevT || c.Instructions() <= prevI {
			t.Fatalf("step %d: time %d<%d or instr %d<=%d", i, c.Time(), prevT, c.Instructions(), prevI)
		}
		prevT, prevI = c.Time(), c.Instructions()
	}
	reads, writes, _, _ := c.Counters()
	if reads == 0 || writes == 0 {
		t.Error("mixed stream produced no reads or no writes")
	}
}

func TestHigherLatencyLowersIPC(t *testing.T) {
	run := func(lat int64) float64 {
		evs := []workloads.Event{{Gap: 20, Line: 1, Dep: true}}
		c := New(0, DefaultParams(), &workloads.FixedStream{Events: evs}, ident, &fakeMem{lat: lat})
		c.MarkWindow()
		for i := 0; i < 1000; i++ {
			c.Step()
		}
		return c.IPC()
	}
	fast, slow := run(100), run(1000)
	if slow >= fast {
		t.Errorf("IPC did not fall with memory latency: %.4f vs %.4f", slow, fast)
	}
}

func TestMoreMSHRsNeverHurt(t *testing.T) {
	run := func(mshrs int) float64 {
		evs := []workloads.Event{{Gap: 4, Line: 1}}
		p := Params{IssueWidth: 2, MSHRs: mshrs, SRAMLat: 10}
		c := New(0, p, &workloads.FixedStream{Events: evs}, ident, &fakeMem{lat: 500})
		c.MarkWindow()
		for i := 0; i < 2000; i++ {
			c.Step()
		}
		return c.IPC()
	}
	if run(16) < run(2) {
		t.Errorf("16 MSHRs slower than 2: %.4f vs %.4f", run(16), run(2))
	}
}

func TestStepDoesNotAllocate(t *testing.T) {
	// The event buffer is reused across Steps; a regression to a local
	// escaping through the Stream interface would cost one heap
	// allocation per simulated event.
	wl := workloads.MustGet("libquantum", 4)
	st := workloads.NewStream(wl.Specs[0], 1<<12, 4, 1)
	c := New(0, DefaultParams(), st, ident, &fakeMem{lat: 10})
	if allocs := testing.AllocsPerRun(2000, c.Step); allocs > 0 {
		t.Errorf("Step allocates %.1f objects per event, want 0", allocs)
	}
}
