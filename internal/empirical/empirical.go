// Package empirical implements the paper's Section 3: instance-optimal
// eps-DP estimators for the empirical mean and quantiles of a dataset drawn
// from the *unbounded* integer domain Z, plus the real-domain variants
// obtained by discretizing R with a bucket size b (§3.5).
//
// The pipeline is: privatize the radius rad(D) = max|X_i| with an SVT over
// doubling counts (Algorithm 3), locate the data with a private median and
// re-privatize the radius of the recentred data to get a range R̃(D)
// (Algorithm 4), then run the clipped mean (Algorithm 5) or the
// finite-domain inverse-sensitivity quantile (Algorithm 6) inside R̃(D).
//
// Utility (constant success probability): the mean has error
// O(γ(D)/(εn)·log log γ(D)) — inward-neighborhood optimal with optimality
// ratio O(log log γ(D)/ε) (Theorems 3.3 and 3.4) — and quantiles have rank
// error O(log γ(D)/ε) (Theorem 3.5).
//
// Who sorts: the integer pipeline reads its clamped data in increasing
// order and radix-sorts it once, on entry, unless it already comes
// sorted. The real-domain consumers (RealQuantile, RealQuantiles,
// RealRange, RealMean's range) never sort buckets: they take reals in
// Sorted's order and discretize them in that order, which yields sorted
// buckets at every bucket size b since Discretize is monotone. The
// caller sorts the reals once (Sorted) — per call in the updp library
// and for WHERE folds, once per table snapshot for the SQL layer's
// cached per-user folds — however many releases then read them.
package empirical

import (
	"errors"
	"math"
	"math/bits"

	"repro/internal/dp"
	"repro/internal/radix"
	"repro/internal/xrand"
)

// maxAbs is the magnitude bound enforced on integer inputs. Values are
// clamped to ±maxAbs on entry — a deterministic per-record map that
// preserves neighboring relations (hence DP) and guarantees that the
// recentring subtraction in Algorithm 4 cannot overflow int64.
const maxAbs = int64(1) << 61

// maxRadiusQueries caps Algorithm 3's SVT sequence. The sequence reaches
// Count(D, 2^62) >= n at query index 64, past every clamped input, so the
// cap is data-independent and unreachable in the absence of extreme noise.
const maxRadiusQueries = 70

// ErrTooFewSamples reports a dataset too small for the requested mechanism.
var ErrTooFewSamples = errors.New("empirical: dataset too small")

// clampInt64 clamps v into [-maxAbs, maxAbs].
func clampInt64(v int64) int64 {
	if v > maxAbs {
		return maxAbs
	}
	if v < -maxAbs {
		return -maxAbs
	}
	return v
}

// sortedClamped returns data clamped to ±maxAbs, in increasing order.
// Clamping is monotone and every consumer only reads the result, so input
// that is already ordered and in range is returned as is; otherwise the
// result is a copy, radix-sorted in linear time.
func sortedClamped(data []int64) []int64 {
	ok := true
	for i, v := range data {
		if v != clampInt64(v) || (i > 0 && v < data[i-1]) {
			ok = false
			break
		}
	}
	if ok {
		return data
	}
	xs := make([]int64, len(data))
	for i, v := range data {
		xs[i] = clampInt64(v)
	}
	radix.Sort(xs)
	return xs
}

// Radius is Algorithm 3 (InfiniteDomainRadius): an eps-DP estimate r̃ad(D)
// with r̃ad(D) <= 2·rad(D) while [-r̃ad, r̃ad] misses only
// O(log(log(rad(D))/beta)/eps) elements of D, with probability >= 1-beta
// (Theorem 3.1). It reads the data once, in O(n) time and O(1) memory.
func Radius(rng *xrand.RNG, data []int64, eps, beta float64) (int64, error) {
	return radius(rng, data, 0, eps, beta)
}

// radiusQueries is the length of the prefix of Algorithm 3's query sequence
// that can still change the count: query 1 is Count(D, 0) and query i >= 2
// is Count(D, 2^(i-2)), so with |v| <= maxAbs = 2^61 every value is covered
// by query 63 and every later query answers n.
const radiusQueries = 63

// radiusQuery returns the index of the first Algorithm 3 query that covers
// v, for |v| <= maxAbs: 1 for v = 0, else the smallest i with
// |v| <= 2^(i-2), i.e. 2 + ceil(log2 |v|).
func radiusQuery(v int64) int {
	if v == 0 {
		return 1
	}
	a := uint64(v)
	if v < 0 {
		a = uint64(-v)
	}
	return 2 + bits.Len64(a-1)
}

// radius runs Algorithm 3 on the values clampInt64(clampInt64(v) - shift)
// for v in data, i.e. on the clamped data recentred at shift. One pass
// buckets every value by the first query that covers it; the SVT's counts
// are then prefix sums of that histogram.
func radius(rng *xrand.RNG, data []int64, shift int64, eps, beta float64) (int64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return 0, dp.ErrEmptyData
	}
	// covered[i] counts the values first covered by query i; the prefix
	// sum below turns it into Count(D, bound_i).
	var covered [radiusQueries + 1]int
	for _, v := range data {
		covered[radiusQuery(clampInt64(clampInt64(v)-shift))]++
	}
	for i := 1; i <= radiusQueries; i++ {
		covered[i] += covered[i-1]
	}

	threshold := float64(len(data)) - dp.SVTLemma26Slack(eps, beta)
	idx, err := dp.SVT(rng, threshold, eps, func(i int) (float64, bool) {
		return float64(covered[min(i, radiusQueries)]), true
	}, maxRadiusQueries)
	if err != nil {
		// The cap is unreachable except under extreme noise; fall back to
		// the largest representable radius (a data-independent constant).
		return maxAbs, nil
	}
	if idx == 1 {
		return 0, nil
	}
	k := uint(idx - 2)
	if k >= 62 {
		return maxAbs, nil
	}
	return int64(1) << k, nil
}

// Range is Algorithm 4 (InfiniteDomainRange): an eps-DP range R̃(D) with
// |R̃(D)| <= 4·γ(D) missing only O(log(log(γ(D))/beta)/eps) elements of D,
// with probability >= 1-beta, provided n > (c1/eps)·log(rad(D)/beta)
// (Theorem 3.2). The budget splits ε/8 + ε/8 + 3ε/4 across the radius,
// median, and recentred-radius steps, per the paper.
func Range(rng *xrand.RNG, data []int64, eps, beta float64) (lo, hi int64, err error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, 0, err
	}
	if len(data) == 0 {
		return 0, 0, dp.ErrEmptyData
	}
	rad1, err := Radius(rng, data, eps/8, beta/3)
	if err != nil {
		return 0, 0, err
	}

	// Clip into [-rad1, rad1] and take a private median over that finite
	// domain (Algorithm 4 lines 2-3). FiniteDomainQuantile clips internally,
	// and rad1 <= maxAbs, so clipping raw data equals clipping clamped data.
	med, err := dp.FiniteDomainQuantile(rng, data, len(data)/2, -rad1, rad1, eps/8, beta/3)
	if err != nil {
		return 0, 0, err
	}

	// Re-estimate the radius of the clamped data recentred at med
	// (|med| <= rad1 <= maxAbs, so the subtraction stays within int64).
	rad2, err := radius(rng, data, med, 3*eps/4, beta/3)
	if err != nil {
		return 0, 0, err
	}

	// [med - rad2, med + rad2], saturating.
	lo = saturatingSub(med, rad2)
	hi = saturatingAdd(med, rad2)
	return lo, hi, nil
}

func saturatingAdd(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return math.MaxInt64
	}
	if b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

func saturatingSub(a, b int64) int64 {
	if b == math.MinInt64 {
		return saturatingAdd(a, math.MaxInt64)
	}
	return saturatingAdd(a, -b)
}

// Mean is Algorithm 5 (InfiniteDomainMean): an eps-DP estimate of the
// empirical mean over Z with error O(γ(D)/(εn)·log(log(γ(D))/β)) w.p.
// >= 1-beta (Theorem 3.3). Budget: 4ε/5 for the range, ε/5 for the
// clipped-mean Laplace noise (scale 5|R̃|/(εn), as in the paper).
func Mean(rng *xrand.RNG, data []int64, eps, beta float64) (float64, error) {
	lo, hi, err := Range(rng, data, 4*eps/5, beta/2)
	if err != nil {
		return 0, err
	}
	fs := make([]float64, len(data))
	for i, v := range data {
		fs[i] = float64(clampInt64(v))
	}
	return dp.ClippedMean(rng, fs, float64(lo), float64(hi), eps/5)
}

// Quantile is Algorithm 6 (InfiniteDomainQuantile): an eps-DP estimate of
// the tau-th order statistic (1-based) over Z with rank error
// O(log(γ(D)/β)/ε) w.p. >= 1-beta (Theorem 3.5). Budget: 4ε/5 range +
// ε/5 finite-domain quantile. The data is clamped and sorted once; both
// finite-domain quantiles (the range's median and the release) then read it
// in place.
func Quantile(rng *xrand.RNG, data []int64, tau int, eps, beta float64) (int64, error) {
	xs := sortedClamped(data)
	lo, hi, err := Range(rng, xs, 4*eps/5, beta/2)
	if err != nil {
		return 0, err
	}
	return dp.FiniteDomainQuantile(rng, xs, tau, lo, hi, eps/5, beta/2)
}
