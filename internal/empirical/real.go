package empirical

import (
	"errors"
	"math"

	"repro/internal/dp"
	"repro/internal/radix"
	"repro/internal/xrand"
)

// ErrBadBucket reports a non-positive or non-finite bucket size.
var ErrBadBucket = errors.New("empirical: bucket size must be positive and finite")

// Discretize maps a real value to its bucket index round(x/b), clamped to
// ±2^61 (§3.5). The clamp is a deterministic per-record map, so it preserves
// neighboring relations and hence ε-DP; it only affects utility for inputs
// beyond 2^61·b.
func Discretize(x, b float64) int64 {
	v := math.Round(x / b)
	if math.IsNaN(v) {
		return 0
	}
	if v >= float64(maxAbs) {
		return maxAbs
	}
	if v <= -float64(maxAbs) {
		return -maxAbs
	}
	return int64(v)
}

// DiscretizeAll maps a real dataset to bucket indices.
func DiscretizeAll(xs []float64, b float64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = Discretize(x, b)
	}
	return out
}

// SortedBuckets returns the bucket indices of xs in increasing order.
// Quantile and Quantiles take such input as is, without a copy or a sort,
// so a caller releasing several quantiles of one dataset discretizes and
// sorts it once. The sort is a radix sort, linear in len(xs) with one pass
// per byte of the indices' span, and allocates nothing beyond the result.
func SortedBuckets(xs []float64, b float64) []int64 {
	out := DiscretizeAll(xs, b)
	radix.Sort(out)
	return out
}

// RealRadius is the real-domain radius estimator (Theorem 3.6): discretize
// with bucket size b, run Algorithm 3, and scale back. The result satisfies
// r̃ad <= 2·rad(D) + 3b with the same outlier bound as the integer case.
func RealRadius(rng *xrand.RNG, data []float64, b, eps, beta float64) (float64, error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, ErrBadBucket
	}
	r, err := Radius(rng, DiscretizeAll(data, b), eps, beta)
	if err != nil {
		return 0, err
	}
	// A value in bucket k may be as large as (k+1/2)b.
	return (float64(r) + 0.5) * b, nil
}

// RealRange is the real-domain range estimator (Theorem 3.7):
// |R̃(D)| <= 4γ(D) + 6b with the integer outlier bound. Range's two
// radius passes only count, so it gets the buckets sorted: its private
// median then reads them in place, with no copy and no second sort.
func RealRange(rng *xrand.RNG, data []float64, b, eps, beta float64) (lo, hi float64, err error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, 0, ErrBadBucket
	}
	ilo, ihi, err := Range(rng, SortedBuckets(data, b), eps, beta)
	if err != nil {
		return 0, 0, err
	}
	return (float64(ilo) - 0.5) * b, (float64(ihi) + 0.5) * b, nil
}

// RealMean is the real-domain mean estimator (Theorem 3.8): error
// O((γ(D)+b)/(εn)·log(log(γ(D)/b)/β)). It finds the range on the
// discretized data but computes the clipped mean on the original reals, so
// the only discretization cost is the slightly wider range.
func RealMean(rng *xrand.RNG, data []float64, b, eps, beta float64) (float64, error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, ErrBadBucket
	}
	lo, hi, err := RealRange(rng, data, b, 4*eps/5, beta/2)
	if err != nil {
		return 0, err
	}
	return dp.ClippedMean(rng, data, lo, hi, eps/5)
}

// RealQuantile is the real-domain quantile estimator (Theorem 3.9): rank
// error O(log(γ(D)/(bβ))/ε) plus an additive b from discretization.
func RealQuantile(rng *xrand.RNG, data []float64, tau int, b, eps, beta float64) (float64, error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, ErrBadBucket
	}
	q, err := Quantile(rng, SortedBuckets(data, b), tau, eps, beta)
	if err != nil {
		return 0, err
	}
	return float64(q) * b, nil
}
