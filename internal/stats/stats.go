// Package stats implements the non-private statistics the estimators and
// the experiment harness are built on: compensated summation, means and
// variances, order statistics and quantiles, empirical range/radius/width,
// random pairing and subsampling, and clipping.
//
// The quantile convention follows the paper (§2.1): for sorted data
// X_1 <= ... <= X_n, the tau-th quantile is the order statistic X_tau with
// tau in [1, n], and X_i is defined as X_1 for i < 1 and X_n for i > n.
package stats

import (
	"math"
	"sort"

	"repro/internal/xrand"
)

// Sum returns the sum of xs using Neumaier's compensated summation, which
// keeps the error independent of n even for adversarial orderings.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// Mean returns the arithmetic mean of xs. It returns NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance (1/n normalization, matching the
// paper's empirical sigma^2(D)) computed with the two-pass algorithm.
// It returns NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		d := x - m
		dev[i] = d * d
	}
	return Sum(dev) / float64(len(xs))
}

// CentralMoment returns the k-th central moment (1/n) * sum (x - mean)^k
// of |x-mean| for even semantics matching the paper's mu_k = E|X-mu|^k.
func CentralMoment(xs []float64, k float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	terms := make([]float64, len(xs))
	for i, x := range xs {
		terms[i] = math.Pow(math.Abs(x-m), k)
	}
	return Sum(terms) / float64(len(xs))
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// OrderStat returns the tau-th order statistic (1-based) of sorted data,
// clamping tau into [1, n] per the paper's convention. sortedXs must be
// sorted ascending and non-empty.
func OrderStat(sortedXs []float64, tau int) float64 {
	n := len(sortedXs)
	if n == 0 {
		return math.NaN()
	}
	if tau < 1 {
		tau = 1
	}
	if tau > n {
		tau = n
	}
	return sortedXs[tau-1]
}

// Quantile returns the p-quantile (p in [0,1]) as the order statistic
// X_ceil(p*n), the paper's convention for X_{n/4} etc. xs need not be sorted.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	tau := int(math.Ceil(p * float64(len(s))))
	return OrderStat(s, tau)
}

// Median returns the n/2-th order statistic.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// IQR returns X_{3n/4} - X_{n/4}, the empirical interquartile range.
func IQR(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	n := len(s)
	hi := OrderStat(s, int(math.Ceil(3*float64(n)/4)))
	lo := OrderStat(s, int(math.Ceil(float64(n)/4)))
	return hi - lo
}

// Radius returns rad(D) = max_i |X_i|. It returns NaN for empty input.
func Radius(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var r float64
	for _, x := range xs {
		if a := math.Abs(x); a > r {
			r = a
		}
	}
	return r
}

// WidthInt64 returns gamma(D) over an integer dataset (0 for empty input).
// The result saturates at MaxInt64 on overflow.
func WidthInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	w := uint64(hi) - uint64(lo) // two's-complement difference is exact
	if w > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(w)
}

// Clip returns x clamped into [lo, hi] (the paper's Clip, §2.6).
func Clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClippedMean returns mean(Clip(D, [lo, hi])), the paper's clipped mean
// estimator (§2.6). Its global sensitivity is (hi-lo)/n.
func ClippedMean(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, comp float64
	for _, x := range xs {
		v := Clip(x, lo, hi)
		t := sum + v
		if math.Abs(sum) >= math.Abs(v) {
			comp += (sum - t) + v
		} else {
			comp += (v - t) + sum
		}
		sum = t
	}
	return (sum + comp) / float64(len(xs))
}

// CountInInt64 returns |D ∩ [lo, hi]| over integers.
func CountInInt64(xs []int64, lo, hi int64) int {
	c := 0
	for _, x := range xs {
		if x >= lo && x <= hi {
			c++
		}
	}
	return c
}

// Pairs draws one random pairing of [0, n) into disjoint pairs and passes
// each pair to pair in turn. The pairing is the one rng.Perm(n) would
// give, read two at a time, and consumes exactly Perm's draws
// (rng.Intn(i+1) for i = n-1 down to 1), but the shuffled indices live in
// one []int32 and no pair's value is stored: pair folds each one as it
// comes, so Algorithm 7 can count its G multiset without building it.
// With odd n the last index is left out.
func Pairs(rng *xrand.RNG, n int, pair func(a, b int)) {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	for i := 0; i+1 < n; i += 2 {
		pair(int(idx[i]), int(idx[i+1]))
	}
}

// PairSquares randomly pairs the elements of xs (see Pairs) and returns
// (X - X')^2 for each pair (the H multiset of Algorithm 9, which is
// subsampled and so kept whole). With odd n the last element is dropped.
func PairSquares(rng *xrand.RNG, xs []float64) []float64 {
	out := make([]float64, 0, len(xs)/2)
	Pairs(rng, len(xs), func(a, b int) {
		d := xs[a] - xs[b]
		out = append(out, d*d)
	})
	return out
}

// Subsample returns m elements drawn uniformly without replacement.
// It panics if m > len(xs).
func Subsample(rng *xrand.RNG, xs []float64, m int) []float64 {
	idx := rng.SampleIndices(len(xs), m)
	out := make([]float64, m)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
