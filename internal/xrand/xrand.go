// Package xrand is a devirtualized reimplementation of math/rand's
// default generator (the Mitchell & Reeds additive lagged-Fibonacci
// source) that emits the exact same value stream.
//
// The simulator's reproducibility contract pins every result to the
// math/rand draw sequence for a given seed, so the generator cannot be
// swapped for a faster algorithm. What CAN go is the dispatch overhead:
// math/rand routes every draw through a rand.Source interface call,
// which blocks inlining on the hottest calls in the simulator (the
// workload generators draw four-plus values per simulated event).
// xrand.Rand is a concrete struct, so Uint64/Int63/Float64 inline into
// their call sites.
//
// Bit-identity is guaranteed by construction rather than by porting the
// seeding routine: New seeds a real math/rand source and reads 607
// consecutive outputs. Because the lagged-Fibonacci update writes each
// output back into its state vector, those 607 outputs ARE the
// generator's complete state, placed at known offsets. From there the
// update rule (x[feed] += x[tap], both cursors stepping backward) is a
// handful of lines. TestMatchesMathRand locks the equivalence across
// every method the simulator uses.
package xrand

import (
	"math"
	"math/rand"
	"sync"
)

const (
	rngLen = 607
	rngTap = 273
)

// Rand generates the same value stream as
// rand.New(rand.NewSource(seed)) for the methods implemented here.
//
// Rand holds no pointers, so a value copy (*dst = *src) is a complete
// copy of the generator: it leaves dst exactly as restoring src's
// Snapshot would. In-memory forks of simulator state rely on this.
type Rand struct {
	tap  int32
	feed int32
	vec  [rngLen]int64
}

// seedCache memoizes recovered post-Seed state vectors. Simulation
// sessions construct many generators from a handful of seeds (every
// design point reuses the session seed), and the stdlib seeding pass
// plus state recovery costs tens of microseconds — enough to dominate
// the analytic (non-simulating) experiments. The cache makes repeat
// seeds a 4.8 KB copy.
var seedCache sync.Map // int64 -> *[rngLen]int64

// New returns a generator whose stream is identical to
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	r := &Rand{tap: 0, feed: rngLen - rngTap}
	if v, ok := seedCache.Load(seed); ok {
		r.vec = *v.(*[rngLen]int64)
		return r
	}
	src := rand.NewSource(seed).(rand.Source64)
	// Recover the post-Seed state vector S from the first rngLen outputs.
	// The k-th draw (1-based) computes o_k = S[feed_k] + vec[tap_k] and
	// stores it at feed_k = (rngLen-rngTap-k) mod rngLen, with
	// tap_k = (rngLen-k) mod rngLen. Working through which slot holds
	// what at each step: for k > rngTap the tap slot was overwritten at
	// draw k-rngTap, so S[feed_k] = o_k - o_{k-rngTap}; for k <= rngTap
	// the tap slot still holds its seed value (recovered by the first
	// pass), so S[feed_k] = o_k - S[tap_k]. int64 addition wraps, so
	// subtraction inverts it exactly.
	var o [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	const feed0 = rngLen - rngTap
	for k := rngTap + 1; k <= rngLen; k++ {
		r.vec[(feed0-k+2*rngLen)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		r.vec[feed0-k] = o[k] - r.vec[rngLen-k]
	}
	vec := r.vec
	seedCache.Store(seed, &vec)
	return r
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	x := r.vec[feed] + r.vec[tap]
	r.vec[feed] = x
	r.tap, r.feed = tap, feed
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// Uint32 matches rand.Rand.Uint32.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 matches rand.Rand.Int31.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 matches rand.Rand.Float64, including the Go 1 stream quirk of
// dividing a 63-bit draw by 2^63 and re-drawing on a result of 1.0.
func (r *Rand) Float64() float64 {
	for {
		f := float64(r.Int63()) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}

// Int63n matches rand.Rand.Int63n.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n matches rand.Rand.Int31n.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn matches rand.Rand.Intn.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// ExpFloat64 matches rand.Rand.ExpFloat64: Marsaglia & Tsang's ziggurat
// with the stdlib's exact tables (see exptables.go).
func (r *Rand) ExpFloat64() float64 {
	const re = 7.69711747013104972
	for {
		j := r.Uint32()
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return re - math.Log(r.Float64())
		}
		if fe[i]+float32(r.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}
