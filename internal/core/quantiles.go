package core

import (
	"errors"
	"math"

	"repro/internal/dp"
	"repro/internal/empirical"
	"repro/internal/xrand"
)

// Quantile-suite errors.
var (
	// ErrNoQuantiles reports an empty rank or probability list.
	ErrNoQuantiles = errors.New("core: need at least one quantile")
	// ErrBadProbability reports a probability outside (0, 1).
	ErrBadProbability = errors.New("core: quantile probability must be in (0, 1)")
	// ErrBadTrim reports a trim fraction outside [0, 1/2).
	ErrBadTrim = errors.New("core: trim fraction must be in [0, 0.5)")
)

// EstimateQuantiles releases k order statistics (1-based ranks) of the
// sample under a single eps-DP budget, using the Algorithm 10 recipe once:
// learn a bucket IQR̲/n with ε/3 (Algorithm 7), then release all ranks
// through the shared-range multi-quantile mechanism with 2ε/3. Compared to k
// independent EstimateQuantile calls at ε/k each, the bucket and range —
// whose rank-error cost is the dominant O(log γ/ε) term — are paid once.
// The output is monotone in rank (post-processing projection).
func EstimateQuantiles(rng *xrand.RNG, data []float64, taus []int, eps, beta float64) ([]float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return nil, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return nil, err
	}
	if len(taus) == 0 {
		return nil, ErrNoQuantiles
	}
	n := len(data)
	if n < 4 {
		return nil, ErrTooFewSamples
	}
	buf := make([]int64, n) // the pairing's shuffle index, then the buckets
	iqrLB, err := iqrLowerBound(rng, data, buf, eps/3, beta/2)
	if err != nil {
		return nil, err
	}
	b := iqrLB / float64(n)
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	return empirical.RealQuantiles(rng, buf, empirical.Sorted(data), taus, b, 2*eps/3, beta/2)
}

// EstimateQuantilesProb releases the p-quantiles for probabilities ps,
// mapping each p to the rank ceil(p·n) (clamped into [1, n]).
func EstimateQuantilesProb(rng *xrand.RNG, data []float64, ps []float64, eps, beta float64) ([]float64, error) {
	if len(ps) == 0 {
		return nil, ErrNoQuantiles
	}
	n := len(data)
	taus := make([]int, len(ps))
	for i, p := range ps {
		if !(p > 0 && p < 1) {
			return nil, ErrBadProbability
		}
		taus[i] = QuantileRank(p, n)
	}
	return EstimateQuantiles(rng, data, taus, eps, beta)
}

// TrimmedMean releases the trim-fraction trimmed mean of the sample under
// eps-DP with no boundedness assumptions: it privately locates the
// trim·n and (1-trim)·n order statistics through the universal quantile
// machinery (ε/4 bucket + ε/2 shared-range quantile pair), clips the data to
// that released interval, and adds Laplace noise calibrated to the clipped
// sensitivity (q̃hi-q̃lo)/n with the remaining ε/4.
//
// This is the classic robust location estimator (the robust-statistics
// framing of DL09) realized with the paper's machinery: the clip bounds are
// DP outputs, so conditioning on them is free (Lemma 2.1), and the final
// release has finite, publicly-known sensitivity even though the raw data
// are unbounded. trim = 0 degrades to the clipped mean over the released
// full range (still private, but with weaker utility than Algorithm 8,
// which clips more aggressively; see §4.2).
func TrimmedMean(rng *xrand.RNG, data []float64, trim, eps, beta float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	if !(trim >= 0 && trim < 0.5) {
		return 0, ErrBadTrim
	}
	n := len(data)
	if n < 4 {
		return 0, ErrTooFewSamples
	}

	loRank := int(math.Floor(trim*float64(n))) + 1
	hiRank := int(math.Ceil((1 - trim) * float64(n)))
	if hiRank < loRank {
		hiRank = loRank
	}

	buf := make([]int64, n) // the pairing's shuffle index, then the buckets
	iqrLB, err := iqrLowerBound(rng, data, buf, eps/4, beta/3)
	if err != nil {
		return 0, err
	}
	b := iqrLB / float64(n)
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	qs, err := empirical.RealQuantiles(rng, buf, empirical.Sorted(data), []int{loRank, hiRank}, b, eps/2, beta/3)
	if err != nil {
		return 0, err
	}
	lo, hi := qs[0], qs[1]
	if hi < lo {
		hi = lo
	}
	return dp.ClippedMean(rng, data, lo, hi, eps/4)
}
