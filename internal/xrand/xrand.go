// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator together with the samplers the differential-privacy
// mechanisms and the synthetic-workload generators need (uniform,
// exponential, Laplace, Gaussian, Gumbel, gamma, chi-square, Pareto,
// Student-t). For Gumbel-max sampling it also exposes the variate as a
// function of its uniform (GumbelOf) and a logarithm-free upper bound on
// it (GumbelBound), so a sampler can draw every candidate's uniform, keep
// the stream, and skip the logarithms of candidates that cannot win.
//
// The generator is xoshiro256** seeded through SplitMix64. It is not
// cryptographically secure; it is meant for reproducible experiments.
// Every estimator in this repository takes an explicit *RNG so that a run
// is a pure function of (data, parameters, seed).
package xrand

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; use Split to derive independent generators per goroutine.
type RNG struct {
	s [4]uint64

	// cached second output of the polar Gaussian sampler
	haveGauss bool
	gauss     float64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding only.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// NewRandomSeed returns a generator seeded from the operating system's
// entropy source. Use this when reproducibility is not required (e.g. in the
// public API's default configuration).
func NewRandomSeed() *RNG {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Entropy failure is unrecoverable for a privacy mechanism: falling
		// back to a fixed seed silently would make noise predictable.
		panic("xrand: reading OS entropy: " + err.Error())
	}
	return New(binary.LittleEndian.Uint64(b[:]))
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives a new generator whose stream is independent of the
// receiver's future outputs. The receiver is advanced.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform value in the open interval (0, 1).
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u != 0 {
			return u
		}
	}
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top of the range to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	return int(r.Int63n(int64(n)))
}

// Int64Range returns a uniform value in the inclusive interval [lo, hi].
// It panics if lo > hi. The span hi-lo may be up to 2^63-2.
func (r *RNG) Int64Range(lo, hi int64) int64 {
	if lo > hi {
		panic("xrand: Int64Range with lo > hi")
	}
	span := uint64(hi - lo) // correct even when lo<0<hi as long as span < 2^63
	if span == math.MaxUint64 {
		return int64(r.Uint64())
	}
	return lo + int64(r.Uint64n(span+1))
}

// Exponential returns an Exponential(1) variate (mean 1).
func (r *RNG) Exponential() float64 {
	return -math.Log(r.Float64Open())
}

// Laplace returns a Laplace variate with location 0 and the given scale
// (density 1/(2b)·exp(-|x|/b)). Implemented as the difference of two
// independent exponentials, which avoids the |u|→0.5 cancellation of the
// inverse-CDF method.
func (r *RNG) Laplace(scale float64) float64 {
	if scale < 0 {
		panic("xrand: Laplace with negative scale")
	}
	return scale * (r.Exponential() - r.Exponential())
}

// Gaussian returns a standard normal variate using Marsaglia's polar method
// with caching of the second output.
func (r *RNG) Gaussian() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.haveGauss = true
		return u * f
	}
}

// Gumbel returns a standard Gumbel variate (location 0, scale 1). Adding
// independent Gumbel noise to log-weights and taking the argmax samples from
// the corresponding softmax distribution (the "Gumbel-max trick"), which is
// how the exponential mechanism is implemented.
func (r *RNG) Gumbel() float64 {
	return GumbelOf(r.Float64Open())
}

// GumbelOf returns the Gumbel variate -log(-log u) of a uniform u in (0, 1):
// Gumbel() is GumbelOf(Float64Open()), bit for bit. A Gumbel-max sampler
// draws u itself so that it can test GumbelBound(u) before paying for the
// two logarithms; the stream is the same either way.
func GumbelOf(u float64) float64 {
	return -math.Log(-math.Log(u))
}

// GumbelBound returns an upper bound on GumbelOf(u) for u on Float64Open's
// grid m·2^-53, m ∈ [1, 2^53-1], without a logarithm. With k the number of
// leading one bits of m's 53 bits, u < 1 - 2^-(k+1), so
// -log u >= 1-u > 2^-(k+1) and GumbelOf(u) < (k+1)·log 2. The 1e-9 pad
// covers the rounding of GumbelOf's two logarithms, which is below 1e-14.
// Half of all draws have k = 0 and a bound of log 2 ≈ 0.69; the largest
// bound, 54·log 2 ≈ 37.43, is at u = 1 - 2^-53.
func GumbelBound(u float64) float64 {
	m := uint64(u * (1 << 53))
	k := bits.LeadingZeros64(^(m << 11))
	return float64(k+1)*math.Ln2 + 1e-9
}

// GumbelMin is a lower bound on every value Gumbel can return. Float64Open
// returns u on the grid k·2^-53, k ∈ [1, 2^53-1], and -log(-log u) is
// increasing in u, so the least value is at u = 2^-53:
// -log(53·log 2) = -3.60377.... The constant rounds down by ~1e-4, which
// also absorbs the last-ulp error of math.Log; a test evaluates Gumbel's
// formula at the low end of the grid.
const GumbelMin = -3.6038

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia–Tsang method.
// It panics if shape <= 0.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("xrand: Gamma with shape <= 0")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		return r.Gamma(shape+1) * math.Pow(r.Float64Open(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Gaussian()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// ChiSquare returns a chi-square variate with df degrees of freedom.
func (r *RNG) ChiSquare(df float64) float64 {
	return 2 * r.Gamma(df/2)
}

// Pareto returns a Pareto(xm, alpha) variate (support [xm, inf)).
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("xrand: Pareto requires xm > 0 and alpha > 0")
	}
	return xm * math.Pow(r.Float64Open(), -1/alpha)
}

// StudentT returns a Student-t variate with nu degrees of freedom.
func (r *RNG) StudentT(nu float64) float64 {
	if nu <= 0 {
		panic("xrand: StudentT with nu <= 0")
	}
	return r.Gaussian() / math.Sqrt(r.ChiSquare(nu)/nu)
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// SampleIndices returns m distinct indices drawn uniformly without
// replacement from [0, n), in random order, using a partial Fisher–Yates
// walk over a dense permutation array (O(n) time and memory, no hashing).
// It panics if m > n or m < 0.
func (r *RNG) SampleIndices(n, m int) []int {
	if m < 0 || m > n {
		panic("xrand: SampleIndices with m out of range")
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < m; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:m:m]
}
