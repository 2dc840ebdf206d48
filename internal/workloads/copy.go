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

// CopyFrom copies src, a generator of the same spec, into g: the fields
// its snapshot carries, event count, RNG and component positions.
func (g *generator) CopyFrom(src Stream) error {
	s, ok := src.(*generator)
	if !ok || len(s.comps) != len(g.comps) {
		return errStreamCopy(g, src)
	}
	g.count = s.count
	*g.rng = *s.rng
	for i := range g.comps {
		g.comps[i].pos = s.comps[i].pos
	}
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
