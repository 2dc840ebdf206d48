package workloads

import (
	"testing"

	"accord/internal/ckpt"
)

// copier is the in-memory fork method every bundled stream has.
type copier interface{ CopyFrom(Stream) error }

// streamSnapshot encodes a checkpointable stream.
func streamSnapshot(s Stream) string {
	e := ckpt.NewEncoder(0)
	s.(Checkpointer).Snapshot(e)
	return string(e.Finish())
}

// TestStreamCopyFrom copies a stream that has emitted 20k events into one
// of the same kind and spec that has emitted 5k: the copy must snapshot
// to the source's bytes and emit the source's next 10k events, and a
// warm copy allocates nothing. The cursor cases cover a copy within one
// recording and across two recordings of the same stream.
func TestStreamCopyFrom(t *testing.T) {
	tc, other := NewTraceCache(0), NewTraceCache(0)
	fixed := func() Stream {
		return &FixedStream{Events: drawEvents(NewStream(testSpec(), 1<<16, 4, 5), 777)}
	}
	cases := []struct {
		name     string
		src, dst func() Stream
	}{
		{"generator", func() Stream { return NewStream(testSpec(), 1<<16, 4, 3) },
			func() Stream { return NewStream(testSpec(), 1<<16, 4, 77) }},
		{"cursor", func() Stream { return tc.Stream(testSpec(), 1<<16, 4, 3) },
			func() Stream { return tc.Stream(testSpec(), 1<<16, 4, 3) }},
		{"cursor-other-recording", func() Stream { return tc.Stream(testSpec(), 1<<16, 4, 3) },
			func() Stream { return other.Stream(testSpec(), 1<<16, 4, 3) }},
		{"fixed", fixed, fixed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := c.src(), c.dst()
			drawEvents(a, 20_000)
			drawEvents(b, 5_000)
			if err := b.(copier).CopyFrom(a); err != nil {
				t.Fatal(err)
			}
			if streamSnapshot(b) != streamSnapshot(a) {
				t.Fatal("Snapshot(copy) != Snapshot(source)")
			}
			want, got := drawEvents(a, 10_000), drawEvents(b, 10_000)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("event %d diverged after copy: %+v != %+v", i, got[i], want[i])
				}
			}
			if streamSnapshot(b) != streamSnapshot(a) {
				t.Fatal("copy and source diverged after the same events")
			}
			if avg := testing.AllocsPerRun(20, func() {
				if err := b.(copier).CopyFrom(a); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("warm CopyFrom allocated %.1f times, want 0", avg)
			}
		})
	}
}

// TestStreamCopyFromRejectsMismatch covers copies across stream kinds and
// across different streams of one kind.
func TestStreamCopyFromRejectsMismatch(t *testing.T) {
	tc := NewTraceCache(0)
	gen := NewStream(testSpec(), 1<<16, 4, 3)
	cur := tc.Stream(testSpec(), 1<<16, 4, 3)
	if err := gen.(copier).CopyFrom(cur); err == nil {
		t.Error("generator accepted a cursor")
	}
	if err := cur.CopyFrom(tc.Stream(testSpec(), 1<<16, 4, 4)); err == nil {
		t.Error("cursor accepted a cursor over another seed's stream")
	}
	if err := (&FixedStream{Events: make([]Event, 3)}).CopyFrom(&FixedStream{Events: make([]Event, 4)}); err == nil {
		t.Error("fixed stream accepted another event list")
	}
}
