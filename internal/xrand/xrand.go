// Package xrand provides deterministic pseudo-random number generation for
// the simulator. Every stochastic component of the simulation draws from an
// explicitly seeded generator so that a run is fully reproducible from its
// seed: same seed, same access stream, same vmstat snapshot.
//
// The generator is splitmix64 seeded xoshiro256**, which is fast, has a
// 256-bit state, and passes BigCrush. We avoid math/rand so that the stream
// is stable across Go releases.
//
// The inverse-CDF samplers (Zipf, Weighted) and inlined coins draw by
// integer compares: a draw's 53 bits x stand for u = x/2^53, and a CDF
// entry or probability becomes the integer threshold x is compared
// against (Search, CoinThreshold). The thresholds are exact, so the
// samples are those of the float definition, bit for bit.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed via splitmix64, which guarantees
// a well-mixed non-zero state for any seed value, including zero.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	return r
}

// Split derives an independent generator from r. It is used to give each
// subsystem (workload, sampler, failure injector) its own stream so that
// adding draws in one subsystem does not perturb another.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// State exposes the generator's four state words and SetState restores
// them. Together with Step they let batch loops keep a stream's state in
// registers across thousands of draws instead of paying eight memory
// operations per draw; the stream is identical to calling Uint64.
func (r *RNG) State() (s0, s1, s2, s3 uint64) { return r.s0, r.s1, r.s2, r.s3 }

// SetState restores state words previously obtained from State (after
// advancing them with Step).
func (r *RNG) SetState(s0, s1, s2, s3 uint64) { r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3 }

// Step advances a raw xoshiro256** state by one draw. It is a pure
// function of the state words, so it inlines everywhere and the state
// stays in registers.
func Step(s0, s1, s2, s3 uint64) (out, t0, t1, t2, t3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the high 64 bits of the 128-bit product.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo); bits.Mul64
// compiles to a single widening multiply.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. The uniform draw is written out
// inline (identical arithmetic to Float64) so the whole predicate inlines
// into sampler hot paths; Float64 itself is over the inlining budget.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(r.Uint64()>>11)/(1<<53) < p
}

// Norm returns a normally distributed float64 with mean mu and standard
// deviation sigma, using the Marsaglia polar method.
func (r *RNG) Norm(mu, sigma float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mu + sigma*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// Exp returns an exponentially distributed float64 with the given rate
// (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp called with rate <= 0")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
