// Package core implements the paper's primary contribution: universal
// pure-DP estimators for the statistical mean (§4, Algorithm 8), variance
// (§5, Algorithm 9), and interquartile range (§6, Algorithm 10) of an
// arbitrary unknown continuous distribution P over R, with no boundedness
// assumptions (A1/A2) and no distribution-family assumption (A3).
//
// The shared first step is Algorithm 7 (EstimateIQRLowerBound), which finds
// a bucket size b with ¼·φ(1/16) <= b <= IQR w.h.p. (Theorem 4.3); the
// statistical estimators then discretize R with that bucket and run the
// Section 3 empirical machinery on a subsample whose privacy cost is
// amplified back to the target budget (Theorem 2.4).
package core

import (
	"errors"
	"math"

	"repro/internal/dp"
	"repro/internal/empirical"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// ErrTooFewSamples reports a dataset too small to run the estimator at all
// (the utility theorems need more; these are hard structural minimums).
var ErrTooFewSamples = errors.New("core: need at least 4 samples")

// maxScaleQueries caps the SVT doubling searches of Algorithm 7 at the
// float64 exponent range: 2^i overflows to +Inf past i=1023 and underflows
// to 0 below i=-1074, so the caps are data-independent constants.
const maxScaleQueries = 1100

// IQRLowerBound is Algorithm 7 (EstimateIQRLowerBound): an eps-DP lower
// bound for the IQR of P. With probability >= 1-beta (Theorem 4.3),
//
//	¼·φ(1/16)  <=  result  <=  IQR.
//
// It randomly pairs the records, counts the pair distances
// G = {|X - X'|} as the pairing draws them, and runs two SVTs over doubling thresholds — one growing
// (2^0, 2^1, ...) and one shrinking (2^0, 2^-1, ...) — against the count
// |G ∩ [0, x]| with target 3n'/16, so the returned power of two sits between
// the 5n'/32 and 7n'/32 order statistics of G w.h.p. (Lemma 4.2).
func IQRLowerBound(rng *xrand.RNG, data []float64, eps, beta float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	if len(data) < 4 {
		return 0, ErrTooFewSamples
	}
	counts, pairs := pairScaleCounts(rng, data)
	nP := float64(pairs)
	target := 3 * nP / 16

	// SVT #1: growing thresholds 2^0, 2^1, ... stops once a power of two
	// captures ~3n'/16 of the pair distances.
	iHat, err1 := dp.SVT(rng, target, eps/2, func(i int) (float64, bool) {
		return counts.upTo(i - 1), true
	}, maxScaleQueries)

	// SVT #2: shrinking thresholds 2^0, 2^-1, ... on negated counts stops
	// once the count drops below ~3n'/16.
	jHat, err2 := dp.SVT(rng, -target, eps/2, func(j int) (float64, bool) {
		return -counts.upTo(1 - j), true
	}, maxScaleQueries)

	if err1 != nil {
		// Growing search never reached the target: the distances exceed
		// every float64 power of two. Return the largest finite power.
		return math.Pow(2, 1023), nil
	}
	if iHat > 1 {
		return math.Pow(2, float64(iHat-2)), nil
	}
	if err2 != nil {
		// Shrinking search never dropped below target: the pair distances
		// are concentrated at 0 (degenerate data, probability 0 under a
		// continuous P). Return the smallest positive double.
		return math.SmallestNonzeroFloat64, nil
	}
	v := math.Pow(2, float64(-jHat))
	if v == 0 {
		v = math.SmallestNonzeroFloat64
	}
	return v, nil
}

// MeanConfig tunes EstimateMean for the ablation experiments. The zero
// value reproduces Algorithm 8 exactly.
type MeanConfig struct {
	// SubsampleSize overrides the paper's m = eps·n subsample used for
	// range finding. 0 means eps·n; values are clamped into [2, n].
	SubsampleSize int
	// Bucket overrides the Algorithm 7 bucket size when positive (this is
	// the "sigma_min given" regime discussed after Theorem 4.5, where the
	// first two terms of the sample-complexity requirement disappear).
	Bucket float64
	// FullDataRange skips subsampling entirely and finds the range on all
	// of D with the full remaining budget — i.e. it degrades Algorithm 8
	// to Algorithm 5 with a learned bucket (ablation E13).
	FullDataRange bool
}

// MeanResult carries the estimate together with its DP-safe internals (the
// privatized range and bucket are themselves DP outputs, so exposing them
// costs nothing and greatly helps debugging).
type MeanResult struct {
	Estimate float64
	Lo, Hi   float64 // privatized clipping range R̃(D')
	Bucket   float64 // discretization bucket (Algorithm 7 output or override)
}

// EstimateMean is Algorithm 8 (EstimateMean): the universal eps-DP mean
// estimator. With probability >= 1-beta its error is the bias-variance
// trade-off of Theorem 4.5; on Gaussians this specializes to Theorem 4.6
// and on heavy-tailed P to Theorem 4.9.
//
// Budget: ε/8 (bucket) + 3ε′/4 on an ε-fraction subsample, which amplifies
// to <= 3ε/4 by Theorem 2.4 with ε′ = log((e^ε−1)/ε + 1), + ε/8 (Laplace).
func EstimateMean(rng *xrand.RNG, data []float64, eps, beta float64) (float64, error) {
	res, err := EstimateMeanWithConfig(rng, data, eps, beta, MeanConfig{})
	return res.Estimate, err
}

// EstimateMeanWithConfig runs Algorithm 8 with ablation overrides.
func EstimateMeanWithConfig(rng *xrand.RNG, data []float64, eps, beta float64, cfg MeanConfig) (MeanResult, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return MeanResult{}, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return MeanResult{}, err
	}
	n := len(data)
	if n < 4 {
		return MeanResult{}, ErrTooFewSamples
	}

	// Line 1: bucket size from the IQR lower bound (ε/8, β/9).
	b := cfg.Bucket
	if !(b > 0) {
		var err error
		b, err = IQRLowerBound(rng, data, eps/8, beta/9)
		if err != nil {
			return MeanResult{}, err
		}
	}

	var lo, hi float64
	if cfg.FullDataRange {
		// Ablation: Algorithm 5's range on all of D with budget 3ε/4.
		var err error
		lo, hi, err = empirical.RealRange(rng, data, b, 3*eps/4, beta/9)
		if err != nil {
			return MeanResult{}, err
		}
	} else {
		// Lines 2-4: range on an ε-fraction subsample with amplified budget.
		m := cfg.SubsampleSize
		if m <= 0 {
			m = int(math.Round(eps * float64(n)))
		}
		if m < 2 {
			m = 2
		}
		if m > n {
			m = n
		}
		sub := stats.Subsample(rng, data, m)
		eta := float64(m) / float64(n)
		epsPrime := dp.SubsampleBudget(eps, eta)
		var err error
		lo, hi, err = empirical.RealRange(rng, sub, b, 3*epsPrime/4, beta/9)
		if err != nil {
			return MeanResult{}, err
		}
	}

	// Line 5: clipped mean of the FULL dataset over R̃(D') with Laplace
	// noise Lap(8|R̃|/(εn)), i.e. an ε/8 spend.
	est, err := dp.ClippedMean(rng, data, lo, hi, eps/8)
	if err != nil {
		return MeanResult{}, err
	}
	return MeanResult{Estimate: est, Lo: lo, Hi: hi, Bucket: b}, nil
}

// VarianceResult carries the variance estimate and its DP-safe internals.
type VarianceResult struct {
	Estimate float64
	Rad      float64 // privatized radius of the pair-square sample
	Bucket   float64 // squared Algorithm 7 bucket
}

// EstimateVariance is Algorithm 9 (EstimateVariance): the universal eps-DP
// variance estimator. It reduces to mean estimation over the pair squares
// Z = (X-X')^2 (E[Z] = 2σ², equation (41)); because Z >= 0 only a radius —
// not a full range — is needed, which is what buys the log log σ term of
// Theorem 5.3. Error bound: Theorem 5.2; Gaussian and heavy-tailed
// specializations: Theorems 5.3 and 5.5.
//
// Budget: ε/8 (bucket) + 3ε′/4 amplified to <= 3ε/4 (radius on subsample)
// + ε/8 (Laplace). The paper's Line 7 writes Lap(8·r̃ad/(εn)), which spends
// ε/4 because one record moves the pair-square mean by up to 2·r̃ad/n; we
// use Lap(16·r̃ad/(εn)) so the total stays within ε.
func EstimateVariance(rng *xrand.RNG, data []float64, eps, beta float64) (float64, error) {
	res, err := EstimateVarianceFull(rng, data, eps, beta)
	return res.Estimate, err
}

// EstimateVarianceFull runs Algorithm 9 and returns diagnostics.
func EstimateVarianceFull(rng *xrand.RNG, data []float64, eps, beta float64) (VarianceResult, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return VarianceResult{}, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return VarianceResult{}, err
	}
	n := len(data)
	if n < 4 {
		return VarianceResult{}, ErrTooFewSamples
	}

	// Line 1: bucket from the IQR lower bound, squared (the pair squares
	// live on the squared scale).
	iqrLB, err := IQRLowerBound(rng, data, eps/8, beta/7)
	if err != nil {
		return VarianceResult{}, err
	}
	b := iqrLB * iqrLB
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}

	// Lines 2-4: pair squares and an ε-fraction subsample of them.
	h := stats.PairSquares(rng, data)
	nP := len(h)
	m := int(math.Round(eps * float64(nP)))
	if m < 2 {
		m = 2
	}
	if m > nP {
		m = nP
	}
	hSub := stats.Subsample(rng, h, m)
	eta := float64(m) / float64(nP)
	epsPrime := dp.SubsampleBudget(eps, eta)

	// Lines 5-6: radius only — H is non-negative, so [0, r̃ad] is a range.
	rad, err := empirical.RealRadius(rng, hSub, b, 3*epsPrime/4, beta/7)
	if err != nil {
		return VarianceResult{}, err
	}

	// Line 7: clipped mean of all of H over [0, r̃ad] plus Laplace noise,
	// halved. One record of D changes one pair square, moving the mean of
	// H by <= rad/n' = 2·rad/n; an ε/8 spend therefore uses scale
	// (rad/n')/(ε/8) = 16·rad/(εn).
	est, err := dp.ClippedMean(rng, h, 0, rad, eps/8)
	if err != nil {
		return VarianceResult{}, err
	}
	return VarianceResult{Estimate: est / 2, Rad: rad, Bucket: b}, nil
}

// EstimateIQR is Algorithm 10 (EstimateIQR): the universal eps-DP IQR
// estimator. It discretizes with bucket IQR̲/n and releases
// X̃_{3n/4} - X̃_{n/4} via the infinite-domain quantile mechanism. Sample
// complexity: Theorem 6.2, with the α ∝ 1/(εn) + 1/√n convergence that
// beats DL09's α ∝ 1/(ε log n). Budget: ε/3 × 3.
func EstimateIQR(rng *xrand.RNG, data []float64, eps, beta float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	n := len(data)
	if n < 4 {
		return 0, ErrTooFewSamples
	}
	iqrLB, err := IQRLowerBound(rng, data, eps/3, beta/6)
	if err != nil {
		return 0, err
	}
	b := iqrLB / float64(n)
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	if math.IsInf(b, 1) {
		return 0, empirical.ErrBadBucket
	}
	// Two independent Algorithm 6 releases of one discretized dataset: it
	// is bucketed and sorted once, and each release reads it in place.
	ints := empirical.SortedBuckets(data, b)
	q1, err := empirical.Quantile(rng, ints, n/4, eps/3, beta/6)
	if err != nil {
		return 0, err
	}
	q3, err := empirical.Quantile(rng, ints, 3*n/4, eps/3, beta/6)
	if err != nil {
		return 0, err
	}
	return float64(q3)*b - float64(q1)*b, nil
}

// EstimateQuantile releases the tau-th order statistic (1-based) of the
// sample under eps-DP using the same recipe as Algorithm 10: learn a bucket
// with ε/2, then run the infinite-domain quantile with ε/2. This is the
// "universal quantile" the paper's machinery supports beyond its three
// headline parameters.
func EstimateQuantile(rng *xrand.RNG, data []float64, tau int, eps, beta float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	n := len(data)
	if n < 4 {
		return 0, ErrTooFewSamples
	}
	iqrLB, err := IQRLowerBound(rng, data, eps/2, beta/2)
	if err != nil {
		return 0, err
	}
	b := iqrLB / float64(n)
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	return empirical.RealQuantile(rng, data, tau, b, eps/2, beta/2)
}
