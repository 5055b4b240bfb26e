package empirical

import (
	"errors"
	"math"
	"sort"

	"repro/internal/dp"
	"repro/internal/xrand"
)

// ErrNoQuantiles reports an empty rank list.
var ErrNoQuantiles = errors.New("empirical: need at least one quantile rank")

// Quantiles releases k order statistics of an unbounded integer dataset
// under a single eps-DP budget. It runs Algorithm 4 once (4ε/5) and then one
// finite-domain inverse-sensitivity quantile (Algorithm 2) per *distinct*
// requested rank with budget (ε/5)/k each — so the range-finding cost,
// which dominates for small k, is paid once rather than k times (experiment
// E16 quantifies the win over k independent Algorithm 6 calls), and
// duplicate ranks cost nothing extra.
//
// The distinct releases are sorted and re-matched to their ranks as
// post-processing (Lemma 2.1), so the output is always monotone in tau —
// taus[i] <= taus[j] implies out[i] <= out[j] — and equal ranks receive
// equal values. The re-matching cannot increase the maximum rank error:
// each value keeps its multiset membership and crossing pairs only move
// values toward their correct side.
func Quantiles(rng *xrand.RNG, data []int64, taus []int, eps, beta float64) ([]int64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return nil, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return nil, err
	}
	if len(taus) == 0 {
		return nil, ErrNoQuantiles
	}
	if len(data) == 0 {
		return nil, dp.ErrEmptyData
	}
	uniq := distinctSorted(taus)
	k := float64(len(uniq))

	// One clamp and sort serves the range and every rank.
	xs := sortedClamped(data)
	lo, hi, err := Range(rng, xs, 4*eps/5, beta/2)
	if err != nil {
		return nil, err
	}

	vals := make([]int64, len(uniq))
	for i, tau := range uniq {
		q, err := dp.FiniteDomainQuantile(rng, xs, tau, lo, hi, eps/5/k, beta/2/k)
		if err != nil {
			return nil, err
		}
		vals[i] = q
	}
	// Monotone projection: uniq is strictly increasing, so sorting the
	// released values and matching by position enforces monotonicity.
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })

	byRank := make(map[int]int64, len(uniq))
	for i, tau := range uniq {
		byRank[tau] = vals[i]
	}
	out := make([]int64, len(taus))
	for i, tau := range taus {
		out[i] = byRank[tau]
	}
	return out, nil
}

// RealQuantiles is the real-domain version of Quantiles (§3.5): discretize
// with bucket b, release the ranks, and scale back. Each value carries an
// extra additive b of discretization error.
func RealQuantiles(rng *xrand.RNG, data []float64, taus []int, b, eps, beta float64) ([]float64, error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return nil, ErrBadBucket
	}
	qs, err := Quantiles(rng, SortedBuckets(data, b), taus, eps, beta)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = float64(q) * b
	}
	return out, nil
}

// distinctSorted returns the distinct values of taus in increasing order.
func distinctSorted(taus []int) []int {
	uniq := append([]int(nil), taus...)
	sort.Ints(uniq)
	w := 0
	for i, v := range uniq {
		if i == 0 || v != uniq[w-1] {
			uniq[w] = v
			w++
		}
	}
	return uniq[:w]
}
