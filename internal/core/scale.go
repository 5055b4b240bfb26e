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
	counts, pairs := pairScaleCounts(rng, data, make([]int32, len(data)))
	nP := float64(pairs)

	// Require the count to clear 7/8 n' plus both the Chernoff slack of
	// the pairing argument and the SVT's own Lemma 2.5 slack, so a stop
	// implies the population event w.h.p.
	slack := 4*math.Sqrt(nP*math.Log(2/beta)) + dp.SVTLemma26Slack(eps, beta)
	threshold := 7*nP/8 + math.Min(slack, nP/16)

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
// g for up to maxScaleQueries exponents k. Every positive finite distance
// is filed under the least k with v <= 2^k, so each query is a prefix-sum
// lookup rather than a pass over g.
type scaleCounts struct {
	nonPos  int   // v <= 0
	ordered int   // every v but NaN, which is never <= x
	minExp  int   // cum[i] counts v <= 2^(minExp+i)
	cum     []int // empty when no distance is positive and finite
}

// The exponents leastPow2Exp returns: 2^-1074 is the least positive
// float64 and math.MaxFloat64 <= 2^1024.
const (
	minPow2Exp = -1074
	maxPow2Exp = 1024
)

// scaleHist files distances one at a time, so scaleCounts is built from
// a stream of pair distances with no slice of them. Its histogram covers
// every exponent, so it needs no first pass to find their span.
type scaleHist struct {
	n, nonPos, nan int
	bins           [maxPow2Exp - minPow2Exp + 1]int // bins[k-minPow2Exp]: v with least exponent k
}

func (h *scaleHist) add(v float64) {
	h.n++
	if k, ok := leastPow2Exp(v); ok {
		h.bins[k-minPow2Exp]++
	} else if v <= 0 {
		h.nonPos++
	} else if v != v {
		h.nan++
	}
}

// counts returns the prefix sums of the filed distances over the
// exponents from the least to the greatest one filed.
func (h *scaleHist) counts() scaleCounts {
	c := scaleCounts{nonPos: h.nonPos, ordered: h.n - h.nan}
	lo, hi := 0, len(h.bins)-1
	for lo <= hi && h.bins[lo] == 0 {
		lo++
	}
	for hi >= lo && h.bins[hi] == 0 {
		hi--
	}
	if lo > hi {
		return c
	}
	c.minExp, c.cum = lo+minPow2Exp, make([]int, hi-lo+1)
	run := c.nonPos
	for i := range c.cum {
		run += h.bins[lo+i]
		c.cum[i] = run
	}
	return c
}

// pairScaleCounts randomly pairs data (stats.Pairs, shuffling idx, a
// len(data) buffer) and files each pair distance |X - X'| — Algorithm
// 7's G multiset, never materialized — into scaleCounts. It returns the
// counts and the number of pairs, |G|.
func pairScaleCounts[I int32 | int64](rng *xrand.RNG, data []float64, idx []I) (scaleCounts, int) {
	var h scaleHist
	stats.Pairs(rng, idx, func(a, b int) { h.add(math.Abs(data[a] - data[b])) })
	return h.counts(), h.n
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
