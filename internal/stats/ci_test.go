package stats

import (
	"math"
	"testing"

	"accord/internal/xrand"
)

// TestStudentTKnownValues checks the quantile solver against textbook
// critical values (two-sided, so confidence 0.95 is the t_{0.975} column).
func TestStudentTKnownValues(t *testing.T) {
	cases := []struct {
		confidence float64
		df         int
		want       float64
	}{
		{0.95, 1, 12.7062},
		{0.95, 2, 4.3027},
		{0.95, 4, 2.7764},
		{0.95, 10, 2.2281},
		{0.95, 29, 2.0452},
		{0.90, 10, 1.8125},
		{0.99, 10, 3.1693},
		{0.95, 1000, 1.9623},
	}
	for _, c := range cases {
		got, ok := StudentT(c.confidence, c.df)
		if !ok {
			t.Fatalf("StudentT(%v, %d): not ok", c.confidence, c.df)
		}
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("StudentT(%v, %d) = %v, want %v", c.confidence, c.df, got, c.want)
		}
	}
}

// TestStudentTLimits: at large df the t distribution converges to the
// standard normal, whose 97.5% quantile is 1.95996.
func TestStudentTLimits(t *testing.T) {
	got, ok := StudentT(0.95, 1_000_000)
	if !ok || math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("StudentT(0.95, 1e6) = %v ok=%t, want ~1.95996", got, ok)
	}
}

// TestStudentTMonotonic: the critical value shrinks with more degrees of
// freedom and grows with confidence.
func TestStudentTMonotonic(t *testing.T) {
	prev := math.Inf(1)
	for _, df := range []int{1, 2, 3, 5, 10, 30, 100, 1000} {
		v, ok := StudentT(0.95, df)
		if !ok {
			t.Fatalf("df=%d: not ok", df)
		}
		if v >= prev {
			t.Errorf("StudentT(0.95, %d) = %v, not below %v", df, v, prev)
		}
		prev = v
	}
	prev = 0
	for _, conf := range []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999} {
		v, ok := StudentT(conf, 10)
		if !ok {
			t.Fatalf("conf=%v: not ok", conf)
		}
		if v <= prev {
			t.Errorf("StudentT(%v, 10) = %v, not above %v", conf, v, prev)
		}
		prev = v
	}
}

// TestStudentTDegenerate: invalid arguments follow the undefined-not-zero
// convention (ok=false) rather than returning a fake critical value.
func TestStudentTDegenerate(t *testing.T) {
	cases := []struct {
		confidence float64
		df         int
	}{
		{0.95, 0},
		{0.95, -3},
		{0, 10},
		{1, 10},
		{-0.5, 10},
		{1.5, 10},
		{math.NaN(), 10},
	}
	for _, c := range cases {
		if _, ok := StudentT(c.confidence, c.df); ok {
			t.Errorf("StudentT(%v, %d): ok=true, want false", c.confidence, c.df)
		}
	}
}

// TestMeanCIDegenerate: n=0 and n=1 are undefined (no variance estimate),
// not silently zero — matching Geomean.
func TestMeanCIDegenerate(t *testing.T) {
	if mean, half, ok := MeanCI(nil, 0.95); ok || !math.IsNaN(mean) || half != 0 {
		t.Errorf("MeanCI(nil) = (%v, %v, %t), want (NaN, 0, false)", mean, half, ok)
	}
	if mean, half, ok := MeanCI([]float64{3.5}, 0.95); ok || mean != 3.5 || half != 0 {
		t.Errorf("MeanCI(one) = (%v, %v, %t), want (3.5, 0, false)", mean, half, ok)
	}
	if _, _, ok := MeanCI([]float64{1, 2, 3}, 1.0); ok {
		t.Error("MeanCI(conf=1): ok=true, want false")
	}
}

// TestMeanCIKnown: a hand-checkable case. xs = {1,2,3,4,5}: mean 3,
// sd sqrt(2.5), stderr sqrt(0.5), t_{0.975,4}=2.7764 → half ≈ 1.9632.
func TestMeanCIKnown(t *testing.T) {
	mean, half, ok := MeanCI([]float64{1, 2, 3, 4, 5}, 0.95)
	if !ok {
		t.Fatal("not ok")
	}
	if math.Abs(mean-3) > 1e-12 {
		t.Errorf("mean = %v, want 3", mean)
	}
	if math.Abs(half-1.9632) > 5e-4 {
		t.Errorf("half = %v, want ~1.9632", half)
	}
}

// TestMeanCIZeroVariance: identical observations give a zero-width
// interval and stay ok (the variance estimate exists; it is zero).
func TestMeanCIZeroVariance(t *testing.T) {
	mean, half, ok := MeanCI([]float64{7, 7, 7, 7}, 0.95)
	if !ok || mean != 7 || half != 0 {
		t.Errorf("MeanCI(7x4) = (%v, %v, %t), want (7, 0, true)", mean, half, ok)
	}
}

// normPair draws a standard-normal pair by Box-Muller (xrand has no
// NormFloat64).
func normPair(rng *xrand.Rand) (float64, float64) {
	u1 := rng.Float64()
	for u1 == 0 {
		u1 = rng.Float64()
	}
	u2 := rng.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	return r * math.Cos(2*math.Pi*u2), r * math.Sin(2*math.Pi*u2)
}

// TestMeanCICoverage is the property test: over many small normal
// samples, the 95% interval should cover the true mean ~95% of the time.
// The binomial tolerance at 4000 trials is ±3 sigma ≈ ±0.0103.
func TestMeanCICoverage(t *testing.T) {
	const (
		trials     = 4000
		n          = 6
		confidence = 0.95
		trueMean   = 10.0
		sd         = 2.0
	)
	rng := xrand.New(12345)
	covered := 0
	xs := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		for i := 0; i < n; i += 2 {
			a, b := normPair(rng)
			xs[i] = trueMean + sd*a
			if i+1 < n {
				xs[i+1] = trueMean + sd*b
			}
		}
		mean, half, ok := MeanCI(xs, confidence)
		if !ok {
			t.Fatal("not ok")
		}
		if math.Abs(mean-trueMean) <= half {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < confidence-0.015 || rate > confidence+0.015 {
		t.Errorf("coverage = %.4f, want ~%.2f", rate, confidence)
	}
}

// TestMeanCICoverageExponential: coverage degrades gracefully on a skewed
// distribution but stays in a sane band — a guard against sign or scaling
// bugs that a symmetric test could mask.
func TestMeanCICoverageExponential(t *testing.T) {
	const (
		trials     = 4000
		n          = 10
		confidence = 0.95
	)
	rng := xrand.New(999)
	covered := 0
	xs := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		for i := range xs {
			xs[i] = rng.ExpFloat64() // true mean 1
		}
		mean, half, ok := MeanCI(xs, confidence)
		if !ok {
			t.Fatal("not ok")
		}
		if math.Abs(mean-1) <= half {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.88 || rate > 0.97 {
		t.Errorf("coverage = %.4f, want within [0.88, 0.97] for exponential n=%d", rate, n)
	}
}
