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
	return DiscretizeInto(make([]int64, len(xs)), xs, b)
}

// DiscretizeInto writes the bucket index of every xs[i] to dst[i] and
// returns dst[:len(xs)]; dst must be at least as long as xs. Over xs in
// Sorted's order the indices come out in increasing order at every
// bucket size, since Discretize is monotone and maps NaN to 0 — which is
// how the real-domain quantiles and ranges get sorted buckets without
// sorting them.
func DiscretizeInto(dst []int64, xs []float64, b float64) []int64 {
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = Discretize(x, b)
	}
	return dst
}

// Sorted returns a copy of xs in increasing order with each NaN placed
// among the zeros (radix.SortFloatsInto): the order the real-domain
// bucket consumers read. A caller that releases several statistics of
// one dataset — or, like the SQL layer's cached per-user folds, many
// releases of it — sorts it once and hands the copy to each.
func Sorted(xs []float64) []float64 {
	out := make([]float64, len(xs))
	radix.SortFloatsInto(out, xs)
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
// |R̃(D)| <= 4γ(D) + 6b with the integer outlier bound. It discretizes
// data in the order given. Given in Sorted's order, the buckets come out
// sorted, and Range's private median reads them in place (its two radius
// passes only count); in any other order that median sorts a copy of
// the buckets, with the same result.
func RealRange(rng *xrand.RNG, data []float64, b, eps, beta float64) (lo, hi float64, err error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, 0, ErrBadBucket
	}
	return realRange(rng, DiscretizeAll(data, b), b, eps, beta)
}

// realRange is Range over the buckets ints of size b, scaled back to the
// reals: bucket k covers [(k-1/2)b, (k+1/2)b].
func realRange(rng *xrand.RNG, ints []int64, b, eps, beta float64) (lo, hi float64, err error) {
	ilo, ihi, err := Range(rng, ints, eps, beta)
	if err != nil {
		return 0, 0, err
	}
	return (float64(ilo) - 0.5) * b, (float64(ihi) + 0.5) * b, nil
}

// RealMean is the real-domain mean estimator (Theorem 3.8): error
// O((γ(D)+b)/(εn)·log(log(γ(D)/b)/β)). It finds the range on the
// discretized data but computes the clipped mean on the original reals, so
// the only discretization cost is the slightly wider range. sorted holds
// data's values in Sorted's order; the range discretizes it into buf
// (at least len(data) long; its contents are overwritten), where the
// buckets come out sorted, as RealRange's do from the same input. The
// clipped mean sums data in its own order.
func RealMean(rng *xrand.RNG, buf []int64, data, sorted []float64, b, eps, beta float64) (float64, error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, ErrBadBucket
	}
	lo, hi, err := realRange(rng, DiscretizeInto(buf, sorted, b), b, 4*eps/5, beta/2)
	if err != nil {
		return 0, err
	}
	return dp.ClippedMean(rng, data, lo, hi, eps/5)
}

// RealQuantile is the real-domain quantile estimator (Theorem 3.9): rank
// error O(log(γ(D)/(bβ))/ε) plus an additive b from discretization. It
// writes data's buckets into buf (at least len(data) long; its contents
// are overwritten), so a caller with a spare buffer, such as the pairing
// index of Algorithm 7, allocates nothing more. Given data in Sorted's
// order the buckets come out sorted and Algorithm 6 reads them in place;
// in any other order it sorts a copy, with the same result.
func RealQuantile(rng *xrand.RNG, buf []int64, data []float64, tau int, b, eps, beta float64) (float64, error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, ErrBadBucket
	}
	q, err := Quantile(rng, DiscretizeInto(buf, data, b), tau, eps, beta)
	if err != nil {
		return 0, err
	}
	return float64(q) * b, nil
}
