// Package rng provides a fast, deterministic pseudo-random number
// generator with support for independent streams, plus the sampling
// distributions used across the repository (uniform, normal and
// arbitrary discrete distributions via the alias method).
//
// All stochastic behaviour in this repository — parameter
// initialization, token routing, dataset synthesis — draws from this
// package so that experiments are reproducible from a single seed.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as
// recommended by its authors. It is not cryptographically secure.
package rng

import "math"

// Source is a xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded deterministically from seed.
// Two Sources constructed with the same seed produce identical streams.
func New(seed uint64) *Source {
	// SplitMix64 expansion of the seed into four non-zero words.
	r := &Source{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15 // all-zero state is the one forbidden state
	}
	return r
}

// Split returns a new Source whose stream is independent of r's for all
// practical purposes. It is used to hand one stream to each worker so
// that concurrent workers never contend on a shared generator.
func (r *Source) Split(i uint64) *Source {
	// Derive a fresh seed from the parent stream state and the index.
	// Mixing with a large odd constant keeps nearby indices far apart.
	return New(r.Uint64() ^ (i+1)*0xd1342543de82ef95)
}

// State captures the generator's exact position in its stream, so a
// paused training run can serialize its RNG sources and resume them
// bit-compatibly (see train.State).
func (r *Source) State() [4]uint64 { return [4]uint64{r.s0, r.s1, r.s2, r.s3} }

// FromState reconstructs a Source at the exact position captured by
// State: the restored source produces the same stream the original
// would have produced from that point on.
func FromState(s [4]uint64) *Source {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15 // all-zero state is the one forbidden state
	}
	return &Source{s0: s[0], s1: s[1], s2: s[2], s3: s[3]}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
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

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Quad returns four independent uniformly random ints in [0, n) from a
// single generator step, one from each 16-bit quarter via fixed-point
// reduction. The reduction bias is at most n·2⁻¹⁶ — immaterial for the
// worker-count fan-outs this serves — in exchange for quartering the
// RNG cost of batched token routing. It panics if n is not in
// [1, 2¹⁶).
func (r *Source) Quad(n int) (a, b, c, d int) {
	if n <= 0 || n > 1<<16-1 {
		panic("rng: Quad called with n out of range")
	}
	v := r.Uint64()
	a = int(uint64(uint16(v)) * uint64(n) >> 16)
	b = int(uint64(uint16(v>>16)) * uint64(n) >> 16)
	c = int(uint64(uint16(v>>32)) * uint64(n) >> 16)
	d = int(uint64(uint16(v>>48)) * uint64(n) >> 16)
	return
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniformly random float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, using the polar Box-Muller transform.
func (r *Source) Normal(mean, stddev float64) float64 {
	// Polar method: rejection-sample a point in the unit disc.
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm fills p with a uniformly random permutation of [0, len(p)) using
// the Fisher-Yates shuffle. It allocates nothing.
func (r *Source) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle randomly permutes the first n indices using swap, in the
// manner of math/rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
