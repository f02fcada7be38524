// Package rng provides a small, fast, deterministic random number generator
// used by every stochastic component in this module (graph generators,
// sampled centralities, Monte-Carlo walks).
//
// It is a splitmix64-seeded xoshiro256** generator. We implement it directly
// rather than using math/rand so that every experiment is reproducible
// bit-for-bit from its seed across Go releases.
package rng

import "math"

// RNG is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; give each goroutine its own generator from New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the given state and returns the next output; it is the
// recommended seeding procedure for xoshiro.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.s0 = splitmix64(&seed)
	r.s1 = splitmix64(&seed)
	r.s2 = splitmix64(&seed)
	r.s3 = splitmix64(&seed)
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo1 := t & mask
	hi1 := t >> 32
	lo1 += a0 * b1
	hi = a1*b1 + hi1 + (lo1 >> 32)
	lo = a * b
	return hi, lo
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Pareto returns a Pareto(xm, alpha) variate: xm * U^(-1/alpha). Heavy-tailed
// degrees in the Group-C generators come from here.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm * math.Pow(u, -1/alpha)
		}
	}
}

// Poisson returns a Poisson(lambda) variate. Knuth's method for small λ,
// normal approximation with continuity correction for large λ.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	x := math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64())
	if x < 0 {
		return 0
	}
	return int(x)
}

// Alias is Walker's alias table: O(1) sampling from a fixed discrete
// distribution after O(n) setup.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table for the given non-negative weights.
// A zero-sum weight vector yields the uniform distribution.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	if n == 0 {
		return a
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	scaled := make([]float64, n)
	if total <= 0 {
		for i := range scaled {
			scaled[i] = 1
		}
	} else {
		for i, w := range weights {
			scaled[i] = w / total * float64(n)
		}
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1 // numerical leftovers
	}
	return a
}

// Draw samples an index from the alias table using r.
func (a *Alias) Draw(r *RNG) int {
	if len(a.prob) == 0 {
		panic("rng: Draw from empty alias table")
	}
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
