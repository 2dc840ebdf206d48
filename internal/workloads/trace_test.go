package workloads

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	spec := presets["gcc"].spec
	spec.Name = "gcc"
	src := NewStream(spec, testCacheLines, 16, 9)
	var buf bytes.Buffer
	const n = 500
	if err := WriteTrace(&buf, src, n); err != nil {
		t.Fatal(err)
	}
	replay, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Events) != n {
		t.Fatalf("trace has %d events, want %d", len(replay.Events), n)
	}
	// Replaying must match a fresh generator with the same seed.
	src2 := NewStream(spec, testCacheLines, 16, 9)
	var want, got Event
	for i := 0; i < n; i++ {
		src2.Next(&want)
		replay.Next(&got)
		if want != got {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestReadTraceSkipsComments(t *testing.T) {
	in := "# header\n\n10 ff r d\n5 a0 w -\n"
	st, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(st.Events))
	}
	if st.Events[0].Line != 0xff || !st.Events[0].Dep || st.Events[0].Write {
		t.Errorf("event 0 = %+v", st.Events[0])
	}
	if !st.Events[1].Write || st.Events[1].Dep {
		t.Errorf("event 1 = %+v", st.Events[1])
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"",            // empty
		"garbage\n",   // unparseable
		"-5 ff r d\n", // negative gap
		"1 ff x d\n",  // bad kind
		"1 ff r q\n",  // bad dep
	}
	for _, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("trace %q accepted", in)
		}
	}
}

func TestTraceWorkload(t *testing.T) {
	events := []Event{{Gap: 10, Line: 1}, {Gap: 20, Line: 2, Write: true}}
	w, err := TraceWorkload("t", events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Specs) != 4 || w.Source == nil {
		t.Fatalf("specs = %d, source set = %t; want 4 and a source", len(w.Specs), w.Source != nil)
	}
	// Derived MPKI: 2 events per (10+20+2) instructions = ~62.5.
	if m := w.Specs[0].MPKI; m < 60 || m < 0 || m > 65 {
		t.Errorf("derived MPKI = %v, want ~62.5", m)
	}
	// Streams replay independently, and every call starts a fresh one.
	var a, b, c Event
	s0 := w.Source(0)
	s0.Next(&a)
	s0.Next(&a) // core 0 advances twice
	w.Source(1).Next(&b)
	w.Source(0).Next(&c) // a rebuilt core 0 starts over
	if b.Line != 1 || c.Line != 1 {
		t.Errorf("fresh streams' first event lines = %d, %d; want 1, 1", b.Line, c.Line)
	}
	if _, err := TraceWorkload("empty", nil, 2); err == nil {
		t.Error("empty trace accepted")
	}
}
