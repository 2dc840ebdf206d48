package stats

import "math"

// This file implements the Student-t confidence-interval machinery the
// interval-sampling driver (internal/sim) uses to decide when enough
// detailed windows have been measured. Everything is closed-form or
// classic numerics — no external dependencies.

// lgamma is math.Lgamma without the sign (the arguments used here are
// always positive, where Gamma > 0).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaIncReg computes the regularized incomplete beta function I_x(a, b)
// via the standard continued-fraction expansion (Lentz's method), using
// the symmetry relation to keep the fraction in its fast-converging
// region. Accurate to ~1e-12 for the a, b ≥ 1/2 arguments the t CDF
// needs.
func betaIncReg(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lnPre := lgamma(a+b) - lgamma(a) - lgamma(b) +
		a*math.Log(x) + b*math.Log1p(-x)
	if x < (a+1)/(a+b+2) {
		return math.Exp(lnPre) * betaCF(x, a, b) / a
	}
	return 1 - math.Exp(lnPre)*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz algorithm.
func betaCF(x, a, b float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// tCDF is the CDF of Student's t distribution with df degrees of freedom,
// expressed through the regularized incomplete beta function.
func tCDF(t float64, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * betaIncReg(x, df/2, 0.5)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentT returns the two-sided Student-t critical value t* with df
// degrees of freedom at the given confidence level: the quantile such
// that P(|T| ≤ t*) = confidence. It follows the package's
// undefined-not-zero convention (Geomean): ok is false — and the value
// meaningless — when df < 1 or confidence is outside (0, 1).
func StudentT(confidence float64, df int) (float64, bool) {
	if df < 1 || confidence <= 0 || confidence >= 1 ||
		math.IsNaN(confidence) {
		return 0, false
	}
	// Solve tCDF(t) = p for the upper-tail probability by bisection; the
	// CDF is strictly increasing so this is robust everywhere, and ~60
	// iterations give full float64 precision.
	p := 0.5 + confidence/2
	lo, hi := 0.0, 1.0
	for tCDF(hi, float64(df)) < p {
		hi *= 2
		if hi > 1e18 { // confidence ≈ 1 rounds the target past the CDF range
			return 0, false
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-12*(1+hi); i++ {
		mid := lo + (hi-lo)/2
		if tCDF(mid, float64(df)) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, true
}

// MeanCI returns the sample mean of xs and the half-width of its
// two-sided Student-t confidence interval at the given confidence level:
// mean ± half covers the true mean with the stated probability under the
// usual normality assumption. Per the undefined-not-zero convention, ok
// is false when fewer than two observations exist (a single sample has
// no variance estimate) or the confidence level is invalid; mean is
// still the sample mean whenever len(xs) ≥ 1.
func MeanCI(xs []float64, confidence float64) (mean, half float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0, false
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	t, tok := StudentT(confidence, n-1)
	if !tok {
		return mean, 0, false
	}
	stderr := math.Sqrt(ss / float64(n-1) / float64(n))
	return mean, t * stderr, true
}
