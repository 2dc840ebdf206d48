package workloads

import "fmt"

// In-memory forks. Every bundled stream has a CopyFrom method, the
// in-memory counterpart of Snapshot and Restore: it makes the receiver a
// copy of src, a stream of the same kind over the same spec, which then
// emits exactly the events src would and snapshots to the same bytes,
// as if src's Snapshot had been restored into it. It allocates nothing.
// The method is optional and outside Stream: the core finds it by type
// assertion, and sampled runs fork through the codec without it. On
// error the receiver is unspecified, as after a failed Restore.

// errStreamCopy reports a copy between streams of different kinds or
// specs.
func errStreamCopy(dst, src Stream) error {
	return fmt.Errorf("workloads: cannot copy stream %T into %T", src, dst)
}

// copyState copies the generator's mutable state from s, the fields its
// snapshot carries: event count, RNG and component positions.
func (g *generator) copyState(s *generator) {
	g.count = s.count
	*g.rng = *s.rng
	for i := range g.comps {
		g.comps[i].pos = s.comps[i].pos
	}
}

// CopyFrom copies src, a generator of the same spec, into g.
func (g *generator) CopyFrom(src Stream) error {
	s, ok := src.(*generator)
	if !ok || len(s.comps) != len(g.comps) {
		return errStreamCopy(g, src)
	}
	g.copyState(s)
	return nil
}

// CopyFrom copies src, a windowed generator of the same spec, into w,
// with its buffer and the pre-buffer state snapshots replay from. Restore
// drops the buffer and regenerates it instead; both serve the same events
// and snapshot alike at every position.
func (w *windowedGenerator) CopyFrom(src Stream) error {
	s, ok := src.(*windowedGenerator)
	if !ok || len(s.g.comps) != len(w.g.comps) {
		return errStreamCopy(w, src)
	}
	w.g.copyState(s.g)
	w.wpos, w.wlen = s.wpos, s.wlen
	w.preRng = s.preRng
	copy(w.preComps, s.preComps)
	w.preCount = s.preCount
	w.gaps, w.lines, w.flags = s.gaps, s.lines, s.flags
	return nil
}

// CopyFrom copies src, a cursor over the same stream, into c: its
// position, with the cached window dropped as Restore drops it. The two
// cursors may replay different recordings of the stream (a trace cache
// that evicted and re-recorded it); the events are the same.
func (c *Cursor) CopyFrom(src Stream) error {
	s, ok := src.(*Cursor)
	if !ok || s.t.key != c.t.key {
		return errStreamCopy(c, src)
	}
	c.pos = s.pos
	c.idx = 0
	c.gaps, c.lines, c.flags = nil, nil, nil
	return nil
}

// CopyFrom copies src's position into f; src must replay the same events.
func (f *FixedStream) CopyFrom(src Stream) error {
	s, ok := src.(*FixedStream)
	if !ok || len(s.Events) != len(f.Events) {
		return errStreamCopy(f, src)
	}
	f.pos = s.pos
	return nil
}
