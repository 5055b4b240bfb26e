package dp

// Parallel composition (McSherry 2009): mechanisms run on DISJOINT
// subsets of the data jointly satisfy the MAXIMUM of their individual
// guarantees, not the sum. The grouped release path (dpsql GROUP BY,
// the serve histogram endpoint) earns the precondition by clamping each
// user to a bounded number of groups during the per-user collapse: at
// contribution bound 1 the groups partition the users and the whole
// grouped answer is priced as ONE release.

// ParallelCost prices a grouped release from its per-group cost. per is
// the cost of releasing ONE group's answer; bound is the maximum number
// of groups a single user contributes to.
//
// bound <= 1 is parallel composition proper: the groups are disjoint in
// users, the joint guarantee is the per-group maximum, and the whole
// grouped release costs exactly `per` — independent of how many groups
// exist. (bound 0 is treated as 1, matching dpsql's default.)
//
// bound > 1 is the honest fallback to sequential (group) composition: a
// user seen by up to `bound` groups faces at most bound-fold composition
// of the per-group guarantee, so Eps and Rho scale linearly by bound
// (basic and zCDP composition are additive).
//
// The result keeps the input's representation — Eps stays Eps and Rho
// stays Rho — so every ledger backend that accepts the per-group cost
// accepts the parallel-composed one.
func ParallelCost(per Cost, bound int) Cost {
	if bound <= 1 {
		return per
	}
	k := float64(bound)
	return Cost{Eps: per.Eps * k, Rho: per.Rho * k}
}
