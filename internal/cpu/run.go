package cpu

import (
	"accord/internal/memtypes"
	"accord/internal/workloads"
)

// StepRun advances the core through consecutive detailed events until its
// retired instruction count reaches target (returns true) or its clock
// passes the stop condition — time > stopTime, or time == stopTime with
// stopOnTie set (returns false). It always executes at least one event.
// This window loop is the core's only detailed event body: it decodes
// events straight from the stream's window with the core's hot state in
// locals, and Step is the one-event call of it. sim.advanceUntil drives
// every detailed core through it, the leader and the finished cores'
// pacing alike.
func (c *Core) StepRun(target, stopTime int64, stopOnTie bool) bool {
	for {
		gaps, lines, flags := c.wstream.Window()
		// Reslice the parallel windows to the gaps length so the compiler
		// can prove every per-event index below is in bounds.
		lines = lines[:len(gaps)]
		flags = flags[:len(gaps)]

		// Hot scalars live in locals for the whole window; c.time is
		// synced around admit/mshrSet, which read (and on a stall, write)
		// the field directly.
		time, instr, carry := c.time, c.instr, c.instCarry
		reads, writes, depStalls := c.reads, c.writes, c.depStalls
		sramLat := c.sramLat
		used := 0
		crossed, stopped := false, false
		for i := range gaps {
			// Non-memory instructions retire at the issue width; the
			// remainder carries so long-run throughput is exact. carry is
			// never negative and the width a power of two, so the
			// division is a shift.
			g := int64(gaps[i])
			carry += g
			time += carry >> c.issueShift
			carry &= c.issueMask

			vl := lines[i]
			var line memtypes.LineAddr
			if vp := vl.Page(); vp == c.memoVPage {
				line = c.memoPBase + memtypes.LineAddr(vl.PageOffset())
			} else {
				line = c.translateLine(vl)
			}

			if f := flags[i]; f&workloads.FlagWrite != 0 {
				// Dirty writeback: drains through the write buffer
				// without stalling the core.
				writes++
				c.mem.Write(time+sramLat, line)
			} else {
				reads++
				c.time = time
				slot := c.admit()
				time = c.time
				done := c.mem.Read(time+sramLat, line)
				if f&workloads.FlagDep != 0 {
					// The core cannot run ahead of a dependent load.
					depStalls++
					time = done
				}
				c.mshr[slot] = done
			}
			instr += g + 1
			used = i + 1
			if instr >= target {
				crossed = true
				break
			}
			if time > stopTime || (time == stopTime && stopOnTie) {
				stopped = true
				break
			}
		}
		c.time, c.instr, c.instCarry = time, instr, carry
		c.reads, c.writes, c.depStalls = reads, writes, depStalls
		c.wstream.Consume(used)
		if crossed {
			return true
		}
		if stopped {
			return false
		}
	}
}
