package cpu

import (
	"fmt"

	"accord/internal/ckpt"
	"accord/internal/workloads"
)

// coreVersion tags the Core encoding; bump on any layout change.
const coreVersion = 1

// checkpointer returns the core's stream as a workloads.Checkpointer,
// the lookup Snapshot and Restore share; cores over streams without one
// cannot be checkpointed.
func (c *Core) checkpointer() (workloads.Checkpointer, error) {
	cp, ok := c.stream.(workloads.Checkpointer)
	if !ok {
		return nil, fmt.Errorf("cpu: core %d stream %T does not support checkpointing", c.id, c.stream)
	}
	return cp, nil
}

// Snapshot serializes the core's clocks, MSHR completion times,
// cumulative counters, window marks, and the workload stream's cursor
// state. The cumulative counters are included because Result.Events and
// Result.InstructionsTotal report warmup work too: a restored run must
// account for the instructions the checkpoint already retired. It
// returns an error when the stream does not implement
// workloads.Checkpointer; such cores cannot be checkpointed.
func (c *Core) Snapshot(e *ckpt.Encoder) error {
	cp, err := c.checkpointer()
	if err != nil {
		return err
	}
	e.U8(coreVersion)
	e.I64(c.time)
	e.I64(c.instr)
	e.I64(c.instCarry)
	e.U32(uint32(len(c.mshr)))
	for _, m := range c.mshr {
		e.I64(m)
	}
	e.U64(c.reads)
	e.U64(c.writes)
	e.U64(c.depStalls)
	e.U64(c.mshrStalls)
	e.I64(c.markTime)
	e.I64(c.markInstr)
	cp.Snapshot(e)
	return nil
}

// streamCopier is the optional in-memory counterpart of
// workloads.Checkpointer; every bundled stream implements it.
type streamCopier interface {
	CopyFrom(src workloads.Stream) error
}

// CopyFunctionalFrom makes c a copy of src's functional state: retired
// instructions, issue carry, event-mix counters and the stream position,
// with the timing state reset by ResetSampleTiming. For src just after
// its own ResetSampleTiming, as at a sampled run's interval boundary,
// that leaves c exactly as restoring src's Snapshot would. It allocates
// nothing. It fails when c's stream has no CopyFrom method or
// src replays another stream; the core is then unspecified.
func (c *Core) CopyFunctionalFrom(src *Core) error {
	sc, ok := c.stream.(streamCopier)
	if !ok {
		return fmt.Errorf("cpu: core %d stream %T does not support copying", c.id, c.stream)
	}
	if err := sc.CopyFrom(src.stream); err != nil {
		return err
	}
	c.instr, c.instCarry = src.instr, src.instCarry
	c.reads, c.writes, c.depStalls = src.reads, src.writes, src.depStalls
	c.ResetSampleTiming()
	return nil
}

// Restore replaces the core's state with a snapshot and empties the
// translation memos: they are derived state, absent from the snapshot,
// and an entry left from before the restore could name a page the
// restored VM state has not mapped. On error the core is left in an
// unspecified state and must be discarded.
func (c *Core) Restore(d *ckpt.Decoder) error {
	cp, err := c.checkpointer()
	if err != nil {
		return err
	}
	if v := d.U8(); d.Err() == nil && v != coreVersion {
		d.Failf("cpu: snapshot version %d, want %d", v, coreVersion)
	}
	c.time = d.I64()
	c.instr = d.I64()
	c.instCarry = d.I64()
	if n := d.U32(); d.Err() == nil && int(n) != len(c.mshr) {
		d.Failf("cpu: snapshot has %d MSHRs, core has %d", n, len(c.mshr))
	}
	if err := d.Err(); err != nil {
		return err
	}
	for i := range c.mshr {
		c.mshr[i] = d.I64()
	}
	c.reads = d.U64()
	c.writes = d.U64()
	c.depStalls = d.U64()
	c.mshrStalls = d.U64()
	c.markTime = d.I64()
	c.markInstr = d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	c.dropMemos()
	return cp.Restore(d)
}
