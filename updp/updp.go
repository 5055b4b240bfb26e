// Package updp is the public API of the universal private estimators
// library — a from-scratch Go implementation of "Universal Private
// Estimators" (Dong & Yi, PODS 2023).
//
// It releases the statistical mean, variance, standard deviation,
// interquartile range, and arbitrary quantiles of a real-valued sample
// under pure ε-differential privacy, for an arbitrary unknown continuous
// distribution: no range for the mean (A1), no bounds on the variance
// (A2), and no distribution-family assumption (A3) are required — the
// first estimators to achieve this under pure DP.
//
// Quick start:
//
//	m, err := updp.Mean(data, 1.0)                  // ε = 1
//	v, err := updp.Variance(data, 1.0)
//	q, err := updp.Quantile(data, 0.99, 1.0)        // universal p99
//	s, err := updp.IQR(data, 1.0, updp.WithSeed(7)) // reproducible
//
// Every call is a self-contained ε-DP release; answering several
// statistics about the same data composes additively (Lemma 2.2 of the
// paper) — budget accordingly, or use Estimator to have the library
// enforce a total budget for you.
//
// Beyond the paper's three headline parameters the library releases
// multi-quantile profiles through one shared privatized range (Quantiles),
// robust trimmed means (TrimmedMean), and confidence intervals
// (QuantileInterval, IQRInterval with universal coverage; MeanInterval for
// the truncated mean — see the interval docs for what pure DP does and
// does not permit). Multivariate extensions live in MeanVector and
// VarianceDiagonal.
//
// The empirical-setting primitives of the paper's Section 3 (instance-
// optimal mean and quantiles over unbounded integer data, of independent
// interest per the paper's abstract) are exposed as EmpiricalMean,
// EmpiricalQuantile, PrivateRange, and PrivateRadius.
package updp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/empirical"
	"repro/internal/xrand"
)

// Errors surfaced by the public API (use errors.Is).
var (
	// ErrInvalidEpsilon reports a non-positive or non-finite ε.
	ErrInvalidEpsilon = dp.ErrInvalidEpsilon
	// ErrInvalidBeta reports a failure probability outside (0, 1).
	ErrInvalidBeta = dp.ErrInvalidBeta
	// ErrTooFewSamples reports fewer than 4 samples.
	ErrTooFewSamples = core.ErrTooFewSamples
	// ErrBudgetExhausted reports an Estimator whose budget is spent.
	ErrBudgetExhausted = dp.ErrBudgetExhausted
	// ErrInvalidQuantile reports a quantile probability outside (0, 1).
	ErrInvalidQuantile = errors.New("updp: quantile probability must be in (0, 1)")
	// ErrInvalidDither reports a negative or non-finite dither width.
	ErrInvalidDither = errors.New("updp: dither width must be finite and non-negative")
)

// config carries per-call options.
type config struct {
	beta   float64
	rng    *xrand.RNG
	dither float64
	ledger dp.Ledger
}

// Option customizes a release.
type Option func(*config)

// WithBeta sets the failure probability β of the utility guarantee
// (default 0.1). It does not affect privacy — only the high-probability
// error bound the theorems attach to the release.
func WithBeta(beta float64) Option {
	return func(c *config) { c.beta = beta }
}

// WithSeed makes the release deterministic for testing and experiment
// reproducibility. Do not use a fixed seed for production releases: the
// privacy guarantee needs fresh randomness per release.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.rng = xrand.New(seed) }
}

// WithLedger makes an Estimator charge its releases to the given
// composition backend instead of the default pure-ε accountant built from
// totalEps (which is then ignored). A dp.ZCDPLedger makes many small
// releases quadratically cheaper; a dp.WindowedLedger renews the budget on
// a wall-clock cadence; a shared ledger lets several Estimators (or other
// release paths) draw from one budget. Remaining and budget-exhausted
// errors then report in the backend's native unit. The option only affects
// NewEstimator; package-level one-shot releases ignore it.
func WithLedger(led dp.Ledger) Option {
	return func(c *config) { c.ledger = led }
}

// WithDither adds independent uniform noise U(-width/2, width/2) to every
// record before estimation. The paper's guarantees assume a *continuous*
// distribution; data with large atoms (integer counts, rounded currency,
// quantized sensors) can make the Algorithm 7 bucket search collapse.
// Dithering restores continuity at a bounded cost: the mean is unchanged
// (the noise is symmetric), the variance grows by width²/12, and quantiles
// and the IQR move by at most width. Pick width at the quantization step.
// Dithering is a per-record randomized map applied before the mechanism,
// so it cannot weaken the privacy guarantee.
func WithDither(width float64) Option {
	return func(c *config) { c.dither = width }
}

func buildConfig(opts []Option) (config, error) {
	c := config{beta: 0.1}
	for _, o := range opts {
		o(&c)
	}
	if err := dp.CheckBeta(c.beta); err != nil {
		return c, err
	}
	if c.dither < 0 || math.IsNaN(c.dither) || math.IsInf(c.dither, 0) {
		return c, fmt.Errorf("%w: dither width %v", ErrInvalidDither, c.dither)
	}
	if c.rng == nil {
		c.rng = xrand.NewRandomSeed()
	}
	return c, nil
}

// prepare applies per-record preprocessing (currently dithering) and
// returns the data slice the mechanism should consume.
func (c config) prepare(data []float64) []float64 {
	if c.dither == 0 {
		return data
	}
	out := make([]float64, len(data))
	for i, x := range data {
		out[i] = x + (c.rng.Float64()-0.5)*c.dither
	}
	return out
}

// Mean releases an ε-DP estimate of the distribution mean (Algorithm 8 /
// Theorem 4.5). Works for any continuous distribution with a finite mean;
// needs no range or scale hints.
func Mean(data []float64, eps float64, opts ...Option) (float64, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return 0, err
	}
	return core.EstimateMean(c.rng, c.prepare(data), eps, c.beta)
}

// Variance releases an ε-DP estimate of the distribution variance
// (Algorithm 9 / Theorem 5.2). Works for any continuous distribution with
// a finite fourth moment.
func Variance(data []float64, eps float64, opts ...Option) (float64, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return 0, err
	}
	return core.EstimateVariance(c.rng, c.prepare(data), eps, c.beta)
}

// StdDev releases an ε-DP estimate of the standard deviation: the square
// root of Variance, projected onto [0, ∞) (post-processing preserves DP).
func StdDev(data []float64, eps float64, opts ...Option) (float64, error) {
	v, err := Variance(data, eps, opts...)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v), nil
}

// IQR releases an ε-DP estimate of the interquartile range (Algorithm 10 /
// Theorem 6.2) — a universal scale estimate that exists even when the mean
// or variance do not (e.g. Cauchy data).
func IQR(data []float64, eps float64, opts ...Option) (float64, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return 0, err
	}
	return core.EstimateIQR(c.rng, c.prepare(data), eps, c.beta)
}

// Quantile releases an ε-DP estimate of the p-quantile, p in (0, 1).
func Quantile(data []float64, p float64, eps float64, opts ...Option) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("%w: got %v", ErrInvalidQuantile, p)
	}
	c, err := buildConfig(opts)
	if err != nil {
		return 0, err
	}
	return core.EstimateQuantile(c.rng, c.prepare(data), core.QuantileRank(p, len(data)), eps, c.beta)
}

// Median releases an ε-DP estimate of the median (the 1/2-quantile).
func Median(data []float64, eps float64, opts ...Option) (float64, error) {
	return Quantile(data, 0.5, eps, opts...)
}

// ---------- empirical-setting API (paper Section 3) ----------

// EmpiricalMean releases an ε-DP estimate of the *empirical* mean µ(D) of
// integer data over the unbounded domain Z (Algorithm 5 / Theorem 3.3).
// The error is O(γ(D)/(εn) · log log γ(D)) — inward-neighborhood optimal.
func EmpiricalMean(data []int64, eps float64, opts ...Option) (float64, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return 0, err
	}
	return empirical.Mean(c.rng, data, eps, c.beta)
}

// EmpiricalQuantile releases an ε-DP estimate of the tau-th order statistic
// (1-based) of integer data over Z (Algorithm 6 / Theorem 3.5), with rank
// error O(log γ(D)/ε).
func EmpiricalQuantile(data []int64, tau int, eps float64, opts ...Option) (int64, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return 0, err
	}
	return empirical.Quantile(c.rng, data, tau, eps, c.beta)
}

// PrivateRange releases an ε-DP interval containing all but
// O(log log γ(D)/ε) of the data, of width at most 4·γ(D) (Algorithm 4 /
// Theorem 3.2).
func PrivateRange(data []int64, eps float64, opts ...Option) (lo, hi int64, err error) {
	c, err := buildConfig(opts)
	if err != nil {
		return 0, 0, err
	}
	return empirical.Range(c.rng, data, eps, c.beta)
}

// PrivateRadius releases an ε-DP estimate r̃ad ≤ 2·rad(D) covering all but
// O(log log rad(D)/ε) of the data (Algorithm 3 / Theorem 3.1).
func PrivateRadius(data []int64, eps float64, opts ...Option) (int64, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return 0, err
	}
	return empirical.Radius(c.rng, data, eps, c.beta)
}
