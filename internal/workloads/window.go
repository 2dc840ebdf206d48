package workloads

import (
	"accord/internal/ckpt"
	"accord/internal/memtypes"
	"accord/internal/xrand"
)

// genWindowEvents is the windowed generator's buffer depth. Big enough
// that the batch consumers (cpu.StepRun, cpu.StepFunctionalBatch)
// amortize their per-window setup over a long run of events, small
// enough that snapshot reconciliation replays a trivial number of
// events (3.3 KB of buffer per core).
const genWindowEvents = 256

// windowedGenerator wraps a generator with an event buffer so generated
// streams expose the same batch window the trace-cache Cursor does
// (Window/Consume over parallel gap/line/flag slices). Generation cost
// is unchanged — fill runs the generator's own Next — but consumers
// lose the per-event interface dispatch, and the cpu batch loops get a
// run of events to scan instead of singletons.
//
// Buffering makes the wrapped generator run ahead of what the consumer
// has seen, which would break checkpointing: a snapshot must encode the
// stream state at the CONSUMED position, not the generated one. fill
// therefore saves the generator's complete logical state (RNG value,
// component cursors, event count — Rand is a value type, so a struct
// copy is a deep copy) before generating each buffer, and Snapshot
// replays that saved state forward by the consumed prefix into a
// scratch generator. The replayed scratch is byte-for-byte the
// generator that produced exactly the consumed events, so the encoding
// stays interchangeable with unwrapped generators and trace-cache
// cursors at the same position.
type windowedGenerator struct {
	g          *generator
	wpos, wlen int

	// Pre-buffer logical state for snapshot reconciliation, valid while
	// wlen > 0: the generator's state before the current buffer's events
	// were generated.
	preRng   xrand.Rand
	preComps []componentState
	preCount int64

	gaps  [genWindowEvents]int32
	lines [genWindowEvents]memtypes.LineAddr
	flags [genWindowEvents]uint8
}

func newWindowedGenerator(g *generator) *windowedGenerator {
	return &windowedGenerator{g: g, preComps: make([]componentState, len(g.comps))}
}

// fill records the generator's logical state, then generates the next
// buffer of events through the generator's own Next so the RNG draw
// sequence is identical to unbuffered consumption.
func (w *windowedGenerator) fill() {
	w.preRng = *w.g.rng
	copy(w.preComps, w.g.comps)
	w.preCount = w.g.count
	var ev Event
	for i := range w.gaps {
		w.g.Next(&ev)
		w.gaps[i] = ev.Gap
		w.lines[i] = ev.Line
		var f uint8
		if ev.Write {
			f = FlagWrite
		}
		if ev.Dep {
			f |= FlagDep
		}
		w.flags[i] = f
	}
	w.wpos, w.wlen = 0, genWindowEvents
}

// Next implements Stream, serving from the buffer.
func (w *windowedGenerator) Next(ev *Event) {
	if w.wpos == w.wlen {
		w.fill()
	}
	i := w.wpos
	ev.Gap = w.gaps[i]
	ev.Line = w.lines[i]
	f := w.flags[i]
	ev.Write = f&FlagWrite != 0
	ev.Dep = f&FlagDep != 0
	w.wpos = i + 1
}

// Window exposes the unconsumed remainder of the current buffer,
// refilling when empty; the slices are invalidated by the next Next,
// Consume, or Restore. Same contract as Cursor.Window.
func (w *windowedGenerator) Window() (gaps []int32, lines []memtypes.LineAddr, flags []uint8) {
	if w.wpos == w.wlen {
		w.fill()
	}
	return w.gaps[w.wpos:w.wlen], w.lines[w.wpos:w.wlen], w.flags[w.wpos:w.wlen]
}

// Consume advances past the first n events of the last Window.
func (w *windowedGenerator) Consume(n int) { w.wpos += n }

// Snapshot implements Checkpointer, encoding the generator state at the
// consumed position. With the buffer drained (or never filled) the live
// generator is that state; otherwise the saved pre-buffer state is
// replayed forward by the consumed prefix in a scratch generator. A
// measurer needs no replay: the encoding's length does not depend on the
// position.
func (w *windowedGenerator) Snapshot(e *ckpt.Encoder) {
	if w.wpos == w.wlen || e.Measuring() {
		w.g.Snapshot(e)
		return
	}
	rng := w.preRng
	scratch := *w.g // immutable/derived fields (spec, cum, meanGap) alias safely
	scratch.rng = &rng
	scratch.comps = append([]componentState(nil), w.preComps...)
	scratch.count = w.preCount
	var ev Event
	for i := 0; i < w.wpos; i++ {
		scratch.Next(&ev)
	}
	scratch.Snapshot(e)
}

// Restore implements Checkpointer; the buffer is discarded since its
// events belong to the abandoned timeline.
func (w *windowedGenerator) Restore(d *ckpt.Decoder) error {
	if err := w.g.Restore(d); err != nil {
		return err
	}
	w.wpos, w.wlen = 0, 0
	return nil
}
