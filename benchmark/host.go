package main

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Host-side measurements and the order statistics the report uses.

// hostSample is a reading of the process's cumulative host counters.
type hostSample struct {
	wall     time.Time
	cpuS     float64 // user + system CPU seconds
	allocB   float64 // bytes allocated on the heap
	gcCPUS   float64 // CPU seconds spent in the garbage collector
	maxRSSMB float64 // peak resident set size
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readHost() hostSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(runtimeSamples)
	return hostSample{
		wall:     time.Now(),
		cpuS:     tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		allocB:   float64(runtimeSamples[0].Value.Uint64()),
		gcCPUS:   runtimeSamples[1].Value.Float64(),
		maxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// hostDelta is the host cost of one measured interval.
type hostDelta struct {
	wallS, cpuS, allocMB, gcCPUS float64
}

func since(a hostSample) hostDelta {
	b := readHost()
	return hostDelta{
		wallS:   b.wall.Sub(a.wall).Seconds(),
		cpuS:    b.cpuS - a.cpuS,
		allocMB: (b.allocB - a.allocB) / (1 << 20),
		gcCPUS:  b.gcCPUS - a.gcCPUS,
	}
}

// timed runs f after a garbage collection and returns its host cost, so
// no run pays for collecting what an earlier one left.
func timed(f func()) hostDelta {
	runtime.GC()
	h := readHost()
	f()
	return since(h)
}

// dirMB returns the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	// Unreadable entries are skipped: the size is a report, not a check.
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantiles returns the n-1 cut points dividing xs into n groups, by the
// method of Python's statistics.quantiles (method="exclusive"), so the
// spreads this program reports match the ones computed from its output.
// It needs at least two values.
func quantiles(xs []float64, n int) []float64 {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 || n < 1 {
		return nil
	}
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/float64(n))
	}
	return out
}

// summary describes a sample of one metric.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{Median: nan, Q1: nan, Q3: nan, Min: nan, Max: nan}
	}
	s := sorted(xs)
	q1, q3 := s[0], s[0]
	if q := quantiles(s, 4); q != nil {
		q1, q3 = q[0], q[2]
	}
	return summary{Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func (s summary) print(w io.Writer) {
	fmt.Fprintf(w, "  median %.6g q1 %.6g q3 %.6g min %.6g max %.6g n %d", s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// p95 returns the 95th percentile (the 19th of 20 cut points), NaN with
// fewer than two values.
func p95(xs []float64) float64 {
	q := quantiles(xs, 20)
	if q == nil {
		return nan
	}
	return q[18]
}
