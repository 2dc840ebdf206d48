package workloads

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"accord/internal/memtypes"
)

// Trace format: one event per line,
//
//	<gap> <hex line address> <r|w> <d|->
//
// where gap is the instruction distance to the previous event, r/w marks
// demand reads versus dirty writebacks, and d marks dependent loads.
// cmd/tracegen emits this format; ReadTrace replays it.

// WriteTrace serializes n events from s to w.
func WriteTrace(w io.Writer, s Stream, n int) error {
	bw := bufio.NewWriter(w)
	var ev Event
	for i := 0; i < n; i++ {
		s.Next(&ev)
		kind := "r"
		if ev.Write {
			kind = "w"
		}
		dep := "-"
		if ev.Dep {
			dep = "d"
		}
		if _, err := fmt.Fprintf(bw, "%d %x %s %s\n", ev.Gap, uint64(ev.Line), kind, dep); err != nil {
			return fmt.Errorf("workloads: writing trace: %w", err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace into a replayable (cycling) stream.
func ReadTrace(r io.Reader) (*FixedStream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		var gap int32
		var addr uint64
		var kind, dep string
		if _, err := fmt.Sscanf(text, "%d %x %s %s", &gap, &addr, &kind, &dep); err != nil {
			return nil, fmt.Errorf("workloads: trace line %d: %w", lineNo, err)
		}
		if gap < 0 {
			return nil, fmt.Errorf("workloads: trace line %d: negative gap", lineNo)
		}
		if kind != "r" && kind != "w" {
			return nil, fmt.Errorf("workloads: trace line %d: kind %q", lineNo, kind)
		}
		if dep != "d" && dep != "-" {
			return nil, fmt.Errorf("workloads: trace line %d: dep %q", lineNo, dep)
		}
		events = append(events, Event{
			Gap:   gap,
			Line:  memtypes.LineAddr(addr),
			Write: kind == "w",
			Dep:   dep == "d",
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workloads: reading trace: %w", err)
	}
	if len(events) == 0 {
		return nil, errors.New("workloads: empty trace")
	}
	return &FixedStream{Events: events}, nil
}

// TraceWorkload builds a Workload replaying the given events on every
// core. Cores share the event sequence but hold independent replay
// positions (and separate address spaces, so rate-mode semantics apply):
// its Source gives each core a fresh FixedStream over the shared events,
// so every system built from it, sampling forks included, replays from
// event zero. The spec's MPKI is derived from the trace's mean gap so the
// simulator's adaptive windows size themselves correctly.
func TraceWorkload(name string, events []Event, cores int) (Workload, error) {
	if len(events) == 0 {
		return Workload{}, fmt.Errorf("workloads: empty trace for %q", name)
	}
	var gaps float64
	for _, ev := range events {
		gaps += float64(ev.Gap)
	}
	mpki := 1000 * float64(len(events)) / (gaps + float64(len(events)))
	spec := Spec{
		Name: name,
		MPKI: mpki,
		// Components are unused by replay but must validate.
		Components: []Component{{Weight: 1, SizeRatio: 1, StrideLines: 1}},
	}
	w := Workload{
		Name:   name,
		Suite:  "trace",
		Source: func(int) Stream { return &FixedStream{Events: events} },
	}
	for i := 0; i < cores; i++ {
		w.Specs = append(w.Specs, spec)
	}
	return w, nil
}
