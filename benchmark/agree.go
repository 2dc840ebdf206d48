package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

// benchSpec is the part of BENCHMARK.json the -agree mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func loadRecords(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// agreeMain compares two sets of recorded runs of the same code. For every
// workload and end-to-end metric it reports each set's median over its
// untraced runs and its spread (interquartile range over median), and it
// disagrees when the medians differ by more than the metric's bound. The
// work counters and output digest of every (workload, seed) recorded in
// both sets must match exactly, and every recorded run must have passed
// its checks. It returns the process exit code.
func agreeMain(specPath, pathA, pathB string, w io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	sets := [2][]report{}
	for i, p := range []string{pathA, pathB} {
		if sets[i], err = loadRecords(p); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	bad := 0
	for i, set := range sets {
		for _, r := range set {
			if !r.Result.Correct {
				fmt.Fprintf(w, "DISAGREE set %c: %s seed %d failed its checks\n", 'A'+i, r.Workload, r.Seed)
				bad++
			}
		}
	}

	fmt.Fprintf(w, "%-15s %-13s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "median A", "spread", "median B", "spread", "diff", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			var s [2]summary
			for i, set := range sets {
				var xs []float64
				for _, r := range set {
					if r.Workload == wl.Name && !r.Trace {
						xs = append(xs, r.Result.Metrics[m.Name].Value)
					}
				}
				s[i] = summarize(xs)
			}
			diff := (s[1].Median - s[0].Median) / s[0].Median
			verdict := "ok"
			if s[0].N == 0 || s[1].N == 0 || !(math.Abs(diff) <= m.Bound) {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "%-15s %-13s %12.6g %8.4f %12.6g %8.4f %+8.4f %6.3f %s (n %d/%d)\n",
				wl.Name, m.Name, s[0].Median, s[0].spread(), s[1].Median, s[1].spread(), diff, m.Bound, verdict, s[0].N, s[1].N)
		}
	}

	// Every run of one (workload, seed), in either set, must match the
	// first one recorded.
	type runKey struct {
		workload string
		seed     int64
	}
	seen := map[runKey]report{}
	compared := 0
	for _, set := range sets {
		for _, r := range set {
			k := runKey{r.Workload, r.Seed}
			a, ok := seen[k]
			if !ok {
				seen[k] = r
				continue
			}
			compared++
			if a.Digest != r.Digest || !reflect.DeepEqual(a.Work, r.Work) {
				fmt.Fprintf(w, "DISAGREE work counters of %s seed %d differ\n", r.Workload, r.Seed)
				bad++
			}
		}
	}
	fmt.Fprintf(w, "work counters compared on %d repeated (workload, seed) runs\n", compared)
	if compared == 0 {
		fmt.Fprintln(w, "DISAGREE no (workload, seed) was run twice")
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d disagreements\n", bad)
		return 1
	}
	fmt.Fprintln(w, "the sets agree")
	return 0
}
