package empirical

import (
	"repro/internal/xrand"
)

// Sum releases an eps-DP estimate of the empirical sum Σ X_i over the
// unbounded integer domain. Under the paper's swap-model neighbors the
// dataset size n is public, so Sum(D) = n·µ(D) and the Algorithm 5 mean
// estimator gives error O(γ(D)/ε · log log γ(D)) — the improvement over
// the domain-bounded state of the art the paper points out in §1.1.1:
// DFY+22 achieve O(rad(D)/ε · log N · log log N) and additionally require
// the domain bound N. Sum estimation is exactly answering self-join-free
// aggregation queries under user-level DP in a relational database.
func Sum(rng *xrand.RNG, data []int64, eps, beta float64) (float64, error) {
	m, err := Mean(rng, data, eps, beta)
	if err != nil {
		return 0, err
	}
	return m * float64(len(data)), nil
}
