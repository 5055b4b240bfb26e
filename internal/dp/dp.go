// Package dp implements the pure differential privacy building blocks the
// paper relies on (§2): the Laplace mechanism, basic composition (the
// BasicLedger budget), privacy amplification by subsampling (Theorem 2.4),
// the sparse vector technique (Algorithm 1), the inverse sensitivity
// mechanism specialized to finite-domain quantiles (Algorithm 2), report
// noisy max, and the clipped mean estimator (§2.6).
//
// All mechanisms draw noise from an explicit *xrand.RNG so runs are
// reproducible; privacy holds with respect to that noise for any fixed
// input, per the definition in the paper's equation (1).
package dp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Errors shared by the mechanisms in this module.
var (
	// ErrInvalidEpsilon reports a non-positive or non-finite privacy budget.
	ErrInvalidEpsilon = errors.New("dp: epsilon must be positive and finite")
	// ErrInvalidBeta reports a failure probability outside (0, 1).
	ErrInvalidBeta = errors.New("dp: beta must be in (0, 1)")
	// ErrEmptyData reports an empty input dataset.
	ErrEmptyData = errors.New("dp: empty dataset")
	// ErrBudgetExhausted reports an accountant with insufficient remaining budget.
	ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")
)

// CheckEpsilon validates a privacy budget.
func CheckEpsilon(eps float64) error {
	if !(eps > 0) || math.IsInf(eps, 1) {
		return fmt.Errorf("%w: got %v", ErrInvalidEpsilon, eps)
	}
	return nil
}

// CheckBeta validates a failure probability.
func CheckBeta(beta float64) error {
	if !(beta > 0 && beta < 1) {
		return fmt.Errorf("%w: got %v", ErrInvalidBeta, beta)
	}
	return nil
}

// Laplace releases value + Lap(sensitivity/eps), the eps-DP Laplace
// mechanism (Lemma 2.3) for a query with the given global sensitivity.
func Laplace(rng *xrand.RNG, value, sensitivity, eps float64) float64 {
	return value + rng.Laplace(sensitivity/eps)
}

// LaplaceTail returns t such that P(|Lap(scale)| > t) <= beta,
// i.e. t = scale * ln(1/beta). Used throughout the utility analysis.
func LaplaceTail(scale, beta float64) float64 {
	return scale * math.Log(1/beta)
}

// SubsampleBudget returns the budget that may be spent on an eta-fraction
// subsample so that the amplified cost (Theorem 2.4) is at most epsTotal.
// A mechanism with budget epsSub run on an eta-fraction subsample drawn
// without replacement costs log(1 + eta*(e^epsSub - 1)); inverting that
// gives log(1 + (e^epsTotal - 1)/eta).
func SubsampleBudget(epsTotal, eta float64) float64 {
	if eta >= 1 {
		return epsTotal
	}
	return math.Log1p(math.Expm1(epsTotal) / eta)
}
