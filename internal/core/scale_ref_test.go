package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// scanUpTo is the per-query scan the scale searches ran before scaleCounts,
// kept as its reference.
func scanUpTo(g []float64, x float64) float64 {
	c := 0
	for _, v := range g {
		if v <= x {
			c++
		}
	}
	return float64(c)
}

// newScaleCounts builds scaleCounts from a materialized G the way the
// scale searches did before pairScaleCounts streamed the pairs: one pass
// for the span of exponents, one to file each distance. It is the
// reference for the streamed build.
func newScaleCounts(g []float64) scaleCounts {
	var c scaleCounts
	lo, hi := math.MaxInt, math.MinInt
	for _, v := range g {
		if k, ok := leastPow2Exp(v); ok {
			lo, hi = min(lo, k), max(hi, k)
		} else if v <= 0 {
			c.nonPos++
		} else if v != v {
			c.ordered--
		}
	}
	c.ordered += len(g)
	if lo > hi {
		return c
	}
	c.minExp, c.cum = lo, make([]int, hi-lo+1)
	for _, v := range g {
		if k, ok := leastPow2Exp(v); ok {
			c.cum[k-lo]++
		}
	}
	run := c.nonPos
	for i := range c.cum {
		run += c.cum[i]
		c.cum[i] = run
	}
	return c
}

// refPairDistances is Algorithm 7's G as the scale searches built it:
// rng.Perm read two at a time.
func refPairDistances(rng *xrand.RNG, xs []float64) []float64 {
	perm := rng.Perm(len(xs))
	out := make([]float64, 0, len(xs)/2)
	for i := 0; i+1 < len(perm); i += 2 {
		out = append(out, math.Abs(xs[perm[i]]-xs[perm[i+1]]))
	}
	return out
}

// Every threshold the scale searches can ask, math.Pow(2, k) for k across
// and beyond the float64 exponent range, must count exactly what a scan
// counts.
func TestScaleCountsMatchScan(t *testing.T) {
	for name, g := range scaleSets() {
		c := newScaleCounts(g)
		for k := -1100; k <= 1100; k++ {
			if got, want := c.upTo(k), scanUpTo(g, math.Pow(2, float64(k))); got != want {
				t.Errorf("%s: upTo(%d) = %v, scan %v", name, k, got, want)
			}
		}
	}
}

// scaleSets holds distance multisets over the float64 edge cases: the
// empty set, zeros of both signs, NaN, +Inf, subnormals and the powers
// of two at either end of the exponent range.
func scaleSets() map[string][]float64 {
	edge := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1074 * 3,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), 0.5, 1, math.Nextafter(1, 2),
		math.Nextafter(1, 0), 3, 0x1p1023, math.Nextafter(0x1p1023, 0),
		math.MaxFloat64, math.Inf(1), math.NaN(), 7, 7, 7,
	}
	r := xrand.New(5)
	gauss := make([]float64, 500)
	for i := range gauss {
		gauss[i] = math.Abs(30 * r.Gaussian())
	}
	return map[string][]float64{
		"empty":    nil,
		"zeros":    {0, 0, 0},
		"nan-only": {math.NaN(), math.NaN()},
		"inf-only": {math.Inf(1), math.NaN()},
		"edge":     edge,
		"gauss":    gauss,
		"one":      {0x1p-40},
	}
}

// The streamed build must answer every query as newScaleCounts over the
// materialized G answers, count the same pairs, and leave the generator
// where the Perm-based pairing leaves it. The data sets are the edge
// sets above and their mirror images (so pairs subtract ±Inf, ±0 and
// NaN from each other), each at odd and even length.
func TestPairScaleCountsMatchesMaterialized(t *testing.T) {
	for name, set := range scaleSets() {
		mirrored := slices.Clone(set)
		for _, v := range set {
			mirrored = append(mirrored, -v)
		}
		for _, data := range [][]float64{set, mirrored, append(slices.Clone(mirrored), 1.5)} {
			for seed := uint64(1); seed <= 3; seed++ {
				r1, r2 := xrand.New(seed), xrand.New(seed)
				got, pairs := pairScaleCounts(r1, data)
				g := refPairDistances(r2, data)
				want := newScaleCounts(g)
				if pairs != len(g) {
					t.Fatalf("%s n=%d seed=%d: %d pairs, want %d", name, len(data), seed, pairs, len(g))
				}
				for k := -1100; k <= 1100; k++ {
					if a, b := got.upTo(k), want.upTo(k); a != b {
						t.Fatalf("%s n=%d seed=%d: upTo(%d) = %v, materialized %v", name, len(data), seed, k, a, b)
					}
				}
				if r1.Uint64() != r2.Uint64() {
					t.Fatalf("%s n=%d seed=%d: generator diverged", name, len(data), seed)
				}
			}
		}
	}
}
