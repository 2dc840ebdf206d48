package workloads

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadTrace holds the trace parser to its contract: whatever the
// input, ReadTrace returns an error or a stream whose events WriteTrace
// writes out and ReadTrace reads back unchanged, and it never panics.
// The seeds are a tracegen trace of a few events under its header line,
// a blank line, and one malformed line.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte("# accord trace: workload=mcf core=0 events=3 scale=1/256 seed=1\n" +
		"3 100000024b w -\n24 3000003b69 r -\n2 1000000127 r d\n"))
	f.Add([]byte("\n"))
	f.Add([]byte("1 ff r\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		st, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, &FixedStream{Events: st.Events}, len(st.Events)); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("ReadTrace of WriteTrace's output: %v\n%s", err, buf.String())
		}
		if !slices.Equal(back.Events, st.Events) {
			t.Fatalf("events changed in a round trip:\nread    %+v\nre-read %+v", st.Events, back.Events)
		}
	})
}
