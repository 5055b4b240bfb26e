// Confidence intervals. The paper's §1.3 notes that because the utility
// guarantees of the universal estimators depend on the unknown parameters of
// P, they "cannot output confidence intervals", and suggests privatized
// upper bounds as a route. This file implements what IS universally
// achievable:
//
//   - QuantileInterval / IQRInterval: distribution-free CIs with *universal
//     coverage*. Rank errors — both the binomial sampling fluctuation and the
//     mechanism slack of Lemma 2.8 — are bounded without any knowledge of P,
//     so a pair of privately released order statistics brackets the
//     population quantile w.h.p. for every continuous P. Only the interval's
//     width is distribution-dependent, exactly as the paper's instance-
//     specific bounds are.
//
//   - MeanInterval: a CI whose coverage target is the truncated mean
//     E[clip(X, R̃)]. Both slack terms (the Laplace tail at the publicly
//     known scale and a Hoeffding term at width |R̃|) are computable from DP
//     outputs alone. It covers µ itself up to the truncation bias
//     E[X<µ-ξ]+E[X>µ+ξ] of Lemma 4.4 — the exact term the paper proves
//     cannot be bounded universally, which is why no universal mean CI
//     exists under pure DP.
package core

import (
	"errors"
	"math"

	"repro/internal/dp"
	"repro/internal/empirical"
	"repro/internal/xrand"
)

// ErrIntervalInfeasible reports that the sample is too small to certify the
// requested coverage: the combined binomial and mechanism rank slack reaches
// past the extreme order statistics, so no distribution-free bracket exists
// at this (n, p, eps, beta). Increase n or eps, or loosen beta. This mirrors
// the paper's "n not too small" preconditions — the CI refuses rather than
// silently clamping ranks and losing coverage.
var ErrIntervalInfeasible = errors.New("core: sample too small to certify the requested confidence level")

// MeanCI is a confidence interval for the truncated mean E[clip(X, R̃)]
// released by Algorithm 8 (see the package comment for what this does and
// does not cover).
type MeanCI struct {
	Estimate       float64 // the Algorithm 8 release
	Lo, Hi         float64 // Estimate ± (NoiseSlack + SamplingSlack)
	ClipLo, ClipHi float64 // the privatized clipping range R̃(D')
	NoiseSlack     float64 // Laplace tail at the public scale 8|R̃|/(εn)
	SamplingSlack  float64 // Hoeffding deviation of the clipped sample mean
}

// MeanInterval runs Algorithm 8 with the full eps budget and derives a
// (1-beta)-confidence interval for the truncated mean from its DP outputs.
// No extra privacy is spent: the clipping range, n, eps, and beta are all
// public, so the slack computation is post-processing (Lemma 2.1).
//
// Coverage accounting: beta/2 for the estimator's internal events (range
// quality), beta/4 for the Laplace tail, beta/4 for the Hoeffding event.
func MeanInterval(rng *xrand.RNG, data []float64, eps, beta float64) (MeanCI, error) {
	if err := dp.CheckBeta(beta); err != nil {
		return MeanCI{}, err
	}
	res, err := EstimateMeanWithConfig(rng, data, eps, beta/2, MeanConfig{})
	if err != nil {
		return MeanCI{}, err
	}
	n := float64(len(data))
	width := res.Hi - res.Lo

	// Laplace scale used by Algorithm 8 line 5: 8|R̃|/(εn).
	noise := dp.LaplaceTail(8*width/(eps*n), beta/4)
	// Hoeffding for a mean of n values confined to an interval of the
	// released width: deviation width·sqrt(log(2/beta')/(2n)).
	sampling := width * math.Sqrt(math.Log(2/(beta/4))/(2*n))

	slack := noise + sampling
	return MeanCI{
		Estimate:      res.Estimate,
		Lo:            res.Estimate - slack,
		Hi:            res.Estimate + slack,
		ClipLo:        res.Lo,
		ClipHi:        res.Hi,
		NoiseSlack:    noise,
		SamplingSlack: sampling,
	}, nil
}

// QuantileCI is a distribution-free confidence interval for a population
// quantile F⁻¹(p).
type QuantileCI struct {
	Lo, Hi float64 // covers F⁻¹(p) with probability >= 1-beta
	P      float64 // the target probability
}

// QuantileInterval releases an eps-DP interval covering F⁻¹(p) with
// probability at least 1-beta for EVERY continuous P. It brackets the target
// between the order statistics at ranks np ∓ (binomial slack + mechanism
// rank slack), each released through the inverse-sensitivity mechanism over
// a privately learned range.
//
// Budget: ε/4 bucket (Algorithm 7) + ε/4 range (Algorithm 4) + ε/4 per
// endpoint quantile (Algorithm 2). Coverage: β/5 per DP event (bucket,
// range, two quantiles) plus β/5 for the binomial fluctuation of the
// empirical rank of F⁻¹(p).
func QuantileInterval(rng *xrand.RNG, data []float64, p, eps, beta float64) (QuantileCI, error) {
	return quantileInterval(rng, data, empirical.Sorted(data), p, eps, beta)
}

// quantileInterval is QuantileInterval over data and sorted, the same
// values in empirical.Sorted's order, whose buckets the range and both
// endpoint quantiles read in place.
func quantileInterval(rng *xrand.RNG, data, sorted []float64, p, eps, beta float64) (QuantileCI, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return QuantileCI{}, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return QuantileCI{}, err
	}
	if !(p > 0 && p < 1) {
		return QuantileCI{}, ErrBadProbability
	}
	n := len(data)
	if n < 4 {
		return QuantileCI{}, ErrTooFewSamples
	}
	nf := float64(n)

	// Cheap feasibility precheck before spending any budget: even with a
	// trivial one-point domain the slack is at least the binomial term
	// plus the Lemma 2.8 constant, and it must leave headroom to both
	// extremes of the rank scale.
	zMin := math.Sqrt(nf*math.Log(2/(beta/5))/2) + dp.QuantileRankSlack(1, eps/4, beta/5)
	if p*nf-zMin < 1 || p*nf+zMin+1 > nf {
		return QuantileCI{}, ErrIntervalInfeasible
	}

	buf := make([]int64, n) // the pairing's shuffle index, then the buckets
	iqrLB, err := iqrLowerBound(rng, data, buf, eps/4, beta/5)
	if err != nil {
		return QuantileCI{}, err
	}
	b := iqrLB / nf
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	// Discretized in sorted order, the buckets come out sorted: the
	// range's median and both endpoint quantiles read them in place.
	ints := empirical.DiscretizeInto(buf, sorted, b)
	lo, hi, err := empirical.Range(rng, ints, eps/4, beta/5)
	if err != nil {
		return QuantileCI{}, err
	}

	// Rank slack: binomial (Hoeffding) fluctuation of #{X_i <= F⁻¹(p)}
	// plus the Lemma 2.8 mechanism slack at the released domain size.
	domain := float64(uint64(hi)-uint64(lo)) + 1
	zBin := math.Sqrt(nf * math.Log(2/(beta/5)) / 2)
	zMech := dp.QuantileRankSlack(domain, eps/4, beta/5)
	z := zBin + zMech

	// Full feasibility check with the realized domain size: the bracket
	// ranks must exist. (The budget already spent on the bucket and range
	// is lost on refusal; that is the price of an honest interval.)
	if p*nf-z < 1 || p*nf+z+1 > nf {
		return QuantileCI{}, ErrIntervalInfeasible
	}
	rLo := clampRank(int(math.Floor(p*nf-z)), n)
	rHi := clampRank(int(math.Ceil(p*nf+z))+1, n)

	qLo, err := dp.FiniteDomainQuantile(rng, ints, rLo, lo, hi, eps/4, beta/5)
	if err != nil {
		return QuantileCI{}, err
	}
	qHi, err := dp.FiniteDomainQuantile(rng, ints, rHi, lo, hi, eps/4, beta/5)
	if err != nil {
		return QuantileCI{}, err
	}
	ciLo := (float64(qLo) - 1) * b // -b: discretization rounding slack
	ciHi := (float64(qHi) + 1) * b
	if ciHi < ciLo {
		ciLo, ciHi = ciHi, ciLo
	}
	return QuantileCI{Lo: ciLo, Hi: ciHi, P: p}, nil
}

// IQRInterval releases an eps-DP interval covering IQR(P) with probability
// at least 1-beta for every continuous P, by differencing distribution-free
// CIs for the two quartiles (ε/2, β/2 each): the IQR lies in
// [max(0, q3.Lo-q1.Hi), q3.Hi-q1.Lo]. Both read one sorted copy of data.
func IQRInterval(rng *xrand.RNG, data []float64, eps, beta float64) (QuantileCI, error) {
	sorted := empirical.Sorted(data)
	q1, err := quantileInterval(rng, data, sorted, 0.25, eps/2, beta/2)
	if err != nil {
		return QuantileCI{}, err
	}
	q3, err := quantileInterval(rng, data, sorted, 0.75, eps/2, beta/2)
	if err != nil {
		return QuantileCI{}, err
	}
	lo := q3.Lo - q1.Hi
	if lo < 0 {
		lo = 0
	}
	hi := q3.Hi - q1.Lo
	if hi < lo {
		hi = lo
	}
	return QuantileCI{Lo: lo, Hi: hi, P: 0.5}, nil
}

// clampRank forces a 1-based rank into [1, n].
func clampRank(r, n int) int {
	if r < 1 {
		return 1
	}
	if r > n {
		return n
	}
	return r
}
