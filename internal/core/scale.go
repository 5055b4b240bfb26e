package core

import (
	"math"
	"math/bits"

	"repro/internal/dp"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// IQRUpperBound releases an eps-DP *upper* bound on the IQR of P — the
// counterpart of Algorithm 7's lower bound, addressing the paper's §1.3
// open problem ("derive privatized upper bounds of these parameters").
//
// Mechanism: with G = {|X - X'|} over random pairs, if an interval of
// width v satisfies P(|X-X'| <= v) >= 7/8, then IQR <= 2v — otherwise the
// two quartile tails, each of mass 1/4, would be separated by more than
// 2v and pairs straddling them (probability >= 1/8) would violate the
// premise. An SVT over doubling thresholds finds the first power of two
// whose count reaches (7/8)n' + slack; 2·2^k is then an upper bound w.h.p.
//
// Combined with IQRLowerBound this yields a private scale bracket
// [IQR̲, IQR̄] usable for sanity checks and crude confidence statements.
func IQRUpperBound(rng *xrand.RNG, data []float64, eps, beta float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	if len(data) < 4 {
		return 0, ErrTooFewSamples
	}
	g := stats.PairDistances(rng, data)
	nP := float64(len(g))

	// Require the count to clear 7/8 n' plus both the Chernoff slack of
	// the pairing argument and the SVT's own Lemma 2.5 slack, so a stop
	// implies the population event w.h.p.
	slack := 4*math.Sqrt(nP*math.Log(2/beta)) + dp.SVTLemma26Slack(eps, beta)
	threshold := 7*nP/8 + math.Min(slack, nP/16)

	counts := newScaleCounts(g)
	iHat, err := dp.SVT(rng, threshold, eps, func(i int) (float64, bool) {
		return counts.upTo(i - 1), true
	}, maxScaleQueries)
	if err != nil {
		// Distances exceed every float64 power of two.
		return math.Inf(1), nil
	}
	return 2 * math.Pow(2, float64(iHat-1)), nil
}

// scaleCounts answers the count |{v ∈ g : v <= math.Pow(2, k)}| that the
// scale searches (Algorithm 7 and IQRUpperBound) ask of the pair distances
// g for up to maxScaleQueries exponents k. One pass files every positive
// finite distance under the least k with v <= 2^k, so each query is a
// prefix-sum lookup rather than a pass over g.
type scaleCounts struct {
	nonPos  int   // v <= 0
	ordered int   // every v but NaN, which is never <= x
	minExp  int   // cum[i] counts v <= 2^(minExp+i)
	cum     []int // empty when no distance is positive and finite
}

func newScaleCounts(g []float64) scaleCounts {
	var c scaleCounts
	lo, hi := math.MaxInt, math.MinInt
	for _, v := range g {
		if k, ok := leastPow2Exp(v); ok {
			lo, hi = min(lo, k), max(hi, k)
		} else if v <= 0 {
			c.nonPos++
		} else if v != v {
			c.ordered--
		}
	}
	c.ordered += len(g)
	if lo > hi {
		return c
	}
	c.minExp, c.cum = lo, make([]int, hi-lo+1)
	for _, v := range g {
		if k, ok := leastPow2Exp(v); ok {
			c.cum[k-lo]++
		}
	}
	run := c.nonPos
	for i := range c.cum {
		run += c.cum[i]
		c.cum[i] = run
	}
	return c
}

// leastPow2Exp returns the least integer k with v <= 2^k, for positive
// finite v. With e the biased exponent field (at least 1) and M the 53-bit
// significand including the implicit bit, v = M·2^(e-1075), so
// k = e - 1075 + ⌈log2 M⌉ = e - 1075 + bits.Len64(M-1).
func leastPow2Exp(v float64) (int, bool) {
	if !(v > 0) || v > math.MaxFloat64 {
		return 0, false
	}
	b := math.Float64bits(v)
	e, m := int(b>>52), b&(1<<52-1)
	if e == 0 {
		e = 1 // subnormal: no implicit bit
	} else {
		m |= 1 << 52
	}
	return e - 1075 + bits.Len64(m-1), true
}

// upTo returns |{v ∈ g : v <= math.Pow(2, k)}|. Past k = 1023 the power
// overflows to +Inf; below k = -1074 it underflows to 0, and no positive
// v lies below 2^-1074.
func (c *scaleCounts) upTo(k int) float64 {
	i := k - c.minExp
	switch {
	case k > 1023:
		return float64(c.ordered)
	case len(c.cum) == 0 || i < 0:
		return float64(c.nonPos)
	case i >= len(c.cum):
		return float64(c.cum[len(c.cum)-1])
	}
	return float64(c.cum[i])
}

// ScaleBracket releases an eps-DP bracket [Lo, Hi] with
// Lo <= IQR(P) <= Hi w.h.p., splitting the budget between Algorithm 7 and
// IQRUpperBound. Hi/Lo also bounds how ill-behaved P can be: by §2.1,
// phi(1/2) <= IQR <= 4·sigma whenever sigma exists.
type ScaleBracket struct {
	Lo, Hi float64
}

// EstimateScaleBracket releases the bracket with an even budget split.
func EstimateScaleBracket(rng *xrand.RNG, data []float64, eps, beta float64) (ScaleBracket, error) {
	lo, err := IQRLowerBound(rng, data, eps/2, beta/2)
	if err != nil {
		return ScaleBracket{}, err
	}
	hi, err := IQRUpperBound(rng, data, eps/2, beta/2)
	if err != nil {
		return ScaleBracket{}, err
	}
	if hi < lo {
		// The two independent randomized searches can cross on tiny
		// samples; collapsing to a point keeps the bracket well-formed
		// (post-processing).
		hi = lo
	}
	return ScaleBracket{Lo: lo, Hi: hi}, nil
}
