// Command benchmark measures the simulator's host cost on one named
// workload and prints every metric by name with its unit, ending with one
// JSON line:
//
//	go run . -workload exact-read -seed 1 -seconds 10 -trace 0
//
// It sets the workload up off the clock (several times, reporting the
// median set-up time), repeats the timed run for at least -seconds and at
// least three times, and checks every run's simulated output against a
// reference: the set-up's output, or the first timed run's where the
// set-up produces none. With -trace 1 it adds one run through the layer
// probes and reports the per-layer metrics instead of the end-to-end
// ones. -record appends the full report to a JSON-lines file, and
// -agree compares two such files. README.md documents the workloads, the
// metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

var nan = math.NaN()

const (
	setupRuns = 3 // set-ups per process; setup_s is their median
	minReps   = 3 // timed runs per process, however short -seconds is
)

// tmpRoot holds the per-process scratch directories (lattices, stores),
// relative to the working directory so a run reads and writes only inside
// its checkout.
const tmpRoot = ".bench_build/tmp"

func main() {
	workload := flag.String("workload", "", "workload to run: "+caseNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "minimum time spent on timed runs")
	trace := flag.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics")
	record := flag.String("record", "", "append the full report to this JSON-lines file")
	agree := flag.Bool("agree", false, "compare two -record files against the bounds in ./BENCHMARK.json: -agree A.jsonl B.jsonl")
	flag.Parse()
	runtime.GOMAXPROCS(hostWorkers)

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -agree A.jsonl B.jsonl")
			os.Exit(2)
		}
		os.Exit(agreeMain("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	c, ok := findCase(*workload)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (%s), -trace 0|1 and -seconds >= 0\n", caseNames())
		os.Exit(2)
	}
	os.Exit(runMain(c, *seed, *seconds, *trace == 1, *record))
}

func caseNames() string {
	var names []string
	for _, c := range cases {
		names = append(names, c.name)
	}
	return strings.Join(names, ", ")
}

// runMain runs one workload in a scratch directory it always removes,
// also when interrupted or when the run panics on this goroutine. A
// panic on a simulator goroutine ends the process without deferred calls,
// so each start also removes the directories of processes that have
// exited.
func runMain(c caseDef, seed int64, seconds float64, trace bool, record string) int {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	removeStale()
	dir := filepath.Join(tmpRoot, fmt.Sprintf("%s-%d", c.name, os.Getpid()))
	if err := os.Mkdir(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// The handler lives until the process exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(1)
	}()

	rep := measure(c.build(c.full, seed, dir), plan{setups: setupRuns, minReps: minReps, seconds: seconds, trace: trace})
	rep.Workload, rep.Seed = c.name, seed
	rep.print(os.Stdout)
	if record != "" {
		if err := appendRecord(record, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// removeStale deletes scratch directories whose process ("<name>-<pid>")
// no longer exists.
func removeStale() {
	entries, err := os.ReadDir(tmpRoot)
	if err != nil {
		return
	}
	for _, e := range entries {
		i := strings.LastIndexByte(e.Name(), '-')
		pid, err := strconv.Atoi(e.Name()[i+1:])
		if err == nil && pid > 0 && syscall.Kill(pid, 0) == syscall.ESRCH {
			os.RemoveAll(filepath.Join(tmpRoot, e.Name()))
		}
	}
}

// metricValue is one metric in the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one process measured; -record stores it whole.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Result   result             `json:"result"`
	Detail   map[string]summary `json:"detail,omitempty"` // end-to-end samples
	Work     map[string]uint64  `json:"work"`             // deterministic work counters
	Digest   string             `json:"digest"`           // of the reference outputs
	Errors   []string           `json:"errors,omitempty"`
}

func (r report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %t\n", r.Workload, r.Seed, r.Trace)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "FAIL", e)
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s", d.name, r.Result.Metrics[d.name].Value, d.unit)
		if s, ok := r.Detail[d.name]; ok {
			s.print(w)
		}
		fmt.Fprintln(w)
	}
	for _, name := range []string{"wall.run_s", "wall.setup_s"} {
		if s, ok := r.Detail[name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s", name, s.Median, "s")
			s.print(w)
			fmt.Fprintln(w)
		}
	}
	line, err := json.Marshal(r.Result)
	if err != nil {
		// Every metric is finite by construction; a NaN here is a bug.
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

func appendRecord(path string, r report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
