package dp

import (
	"errors"
	"math"
	"math/bits"
	"slices"

	"repro/internal/xrand"
)

// ErrEmptyDomain reports a quantile domain with lo > hi.
var ErrEmptyDomain = errors.New("dp: empty quantile domain")

// FiniteDomainQuantile is Algorithm 2: the inverse sensitivity mechanism
// (exponential mechanism with the path-length score, §2.5) releasing the
// tau-th order statistic (1-based) of integer data over the finite ordered
// domain [lo, hi]. With probability >= 1-beta the result has rank error
// at most (4/eps)·log(|X|/beta) (Lemma 2.8).
//
// The target rank is clamped away from the extremes per Algorithm 2 lines
// 1-7; data values outside the domain are clipped into it (a deterministic
// per-record map that preserves neighboring relations).
//
// The domain may be astronomically large (e.g. all of [−2^61, 2^61]): the
// mechanism groups it into maximal constant-score segments — O(n) of them —
// and samples with the Gumbel-max trick in log space, so the run time is
// independent of |X|. Data already in increasing order is read in place in
// O(n) time and O(1) extra memory (clipping preserves order, so it is
// applied on the fly); otherwise a sorted copy costs O(n log n) time and
// O(n) memory.
func FiniteDomainQuantile(rng *xrand.RNG, data []int64, tau int, lo, hi int64, eps, beta float64) (int64, error) {
	if err := CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := CheckBeta(beta); err != nil {
		return 0, err
	}
	if lo > hi {
		return 0, ErrEmptyDomain
	}
	n := len(data)
	if n == 0 {
		return 0, ErrEmptyData
	}

	// Domain size |X| = hi - lo + 1, exact in uint64, logged in float64.
	span := uint64(hi) - uint64(lo) // two's-complement difference is exact
	logDomain := math.Log(float64(span) + 1)

	// Algorithm 2 lines 1-7: clamp tau away from the extremes.
	slack := 2 / eps * (logDomain + math.Log(1/beta))
	tauP := float64(tau)
	if tauP <= slack {
		tauP = slack
	} else if tauP >= float64(n)-slack {
		tauP = float64(n) - slack
	}
	// Keep the target a valid rank even when n is too small for the lemma.
	tauPrime := math.Min(math.Max(tauP, 1), float64(n))

	xs := data
	if !slices.IsSorted(xs) {
		xs = slices.Clone(data)
		slices.Sort(xs)
	}

	// Gumbel-max sampling over segments == exponential mechanism over X:
	// each segment [a, b] has log-weight lw = log(b-a+1) - pen, and the
	// winner is the first segment maximizing lw + Gumbel. Two passes over
	// the same segment sequence keep that result and the generator stream
	// while skipping work for segments that cannot win.
	//
	// Pass 1 takes bar = max over segments of (a lower bound on lw) +
	// GumbelMin: the segment attaining that maximum is certain to draw a
	// key >= bar. Pass 2 draws one Gumbel per segment in order, except
	// that a segment whose largest possible key, lw + GumbelMax, is below
	// bar can never be the argmax: it is advanced with SkipGumbel, which
	// consumes the same generator outputs as Gumbel without the two
	// logarithms. Float rounding is monotone, so when the computed test
	// passes, that segment's computed key is below the computed key of the
	// segment attaining bar. Bounds on log(b-a+1) from the bit length of
	// b-a decide most segments without calling math.Log.
	halfEps := eps / 2
	lower := math.Inf(-1)
	eachSegment(xs, lo, hi, tauPrime, halfEps, func(a, b int64, pen float64) {
		_, lc := logCountBounds(uint64(b) - uint64(a))
		lower = max(lower, lc-pen)
	})
	bar := lower + xrand.GumbelMin
	found := false
	var bestA, bestB int64
	bestKey := math.Inf(-1)
	eachSegment(xs, lo, hi, tauPrime, halfEps, func(a, b int64, pen float64) {
		d := uint64(b) - uint64(a)
		lw := -pen // log 1 = 0 for a single point
		if d > 0 {
			if uc, _ := logCountBounds(d); uc-pen+xrand.GumbelMax < bar {
				rng.SkipGumbel()
				return
			}
			lw = math.Log(float64(d)+1) - pen
		}
		if lw+xrand.GumbelMax < bar {
			rng.SkipGumbel()
			return
		}
		if key := lw + rng.Gumbel(); key > bestKey {
			bestKey, bestA, bestB, found = key, a, b, true
		}
	})
	if !found {
		return 0, ErrEmptyDomain
	}
	return rng.Int64Range(bestA, bestB), nil
}

// logCountBounds brackets math.Log(float64(d)+1), the log point count of a
// segment [a, a+d], using only L = bits.Len64(d): 2^(L-1) < d+1 <= 2^L for
// d >= 1, and d+1 = 1 for d = 0. The 1e-9 padding covers the rounding of
// float64(d)+1 (d+1 may round to 2^L) and of the logarithms, which is
// below 1e-14 at these magnitudes.
func logCountBounds(d uint64) (upper, lower float64) {
	if d == 0 {
		return 0, 0
	}
	l := float64(bits.Len64(d))
	return l*math.Ln2 + 1e-9, (l-1)*math.Ln2 - 1e-9
}

// eachSegment calls visit, in increasing order, for every maximal segment
// [a, b] of the domain [lo, hi] on which the score is constant, with the
// segment's penalty pen = halfEps·len: its log-weight is log(b-a+1) - pen.
// The score of a point y is -len(y) with
// len(y) = max(0, tau - rank_le(y), rank_lt(y) - tau), the number of
// records that must change for y to become the tau-th order statistic
// (§2.5). xs must be sorted; its values are clipped into [lo, hi] as they
// are read, which keeps them sorted.
func eachSegment(xs []int64, lo, hi int64, tau, halfEps float64, visit func(a, b int64, pen float64)) {
	n := len(xs)
	clip := func(v int64) int64 { return min(max(v, lo), hi) }
	penalty := func(rankLT, rankLE int) float64 {
		return halfEps * max(0, tau-float64(rankLE), float64(rankLT)-tau)
	}

	prev := lo       // next uncovered domain point
	covered := false // whether the visited segments already reach hi
	for i := 0; i < n; {
		v := clip(xs[i])
		j := i
		for j < n && clip(xs[j]) == v {
			j++
		}
		// Gap strictly before v: rank_lt = rank_le = i throughout.
		if v > prev {
			visit(prev, v-1, penalty(i, i))
		}
		// The data value itself: rank_lt = i, rank_le = j.
		visit(v, v, penalty(i, j))
		if v == hi {
			covered = true
			break
		}
		prev = v + 1
		i = j
	}
	if !covered && prev <= hi {
		// Trailing gap above the largest data value: all n records below.
		visit(prev, hi, penalty(n, n))
	}
}

// QuantileRankSlack returns the (4/eps)·log(|X|/beta) rank-error bound of
// Lemma 2.8, with |X| passed as a float64 domain size.
func QuantileRankSlack(domainSize, eps, beta float64) float64 {
	return 4 / eps * math.Log(domainSize/beta)
}
