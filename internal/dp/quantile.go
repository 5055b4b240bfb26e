package dp

import (
	"errors"
	"math"
	"math/bits"
	"slices"

	"repro/internal/radix"
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
// applied on the fly), which is how the empirical package's quantiles and
// its real-domain range call it. Otherwise a radix-sorted copy costs O(n)
// time, one pass per byte of the data's span, and O(n) memory.
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
		radix.Sort(xs)
	}

	// Gumbel-max sampling over segments == exponential mechanism over X:
	// each segment [a, b] has log-weight lw = log(b-a+1) - pen, and the
	// winner is the first segment maximizing lw + Gumbel. Two walks over
	// the segment sequence keep that winner and the generator stream while
	// skipping the work of segments that cannot win.
	//
	// Pass 1 takes bar = max over segments of (a lower bound on lw) +
	// GumbelMin: the segment attaining that maximum is certain to draw a
	// key >= bar. The point at rank tau has lw = 0 and every log count is
	// at most maxLog, so a segment more than maxLog/halfEps ranks from tau
	// cannot raise bar, and pass 1 visits only the segments within that
	// reach.
	//
	// Pass 2 draws each segment's uniform u in order, as Gumbel would. A
	// segment whose largest possible key, (upper bound on lw) +
	// GumbelBound(u), is below bar or below the best key so far cannot be
	// the first argmax, and its logarithms are never taken. Float rounding
	// is monotone, so when the computed test passes, the segment's computed
	// key is below the one it is compared with. Past
	// (maxLog + max GumbelBound - bar)/halfEps ranks from tau every
	// segment fails the test whatever its u, so there the walk only counts
	// segments and advances the generator once for each.
	halfEps := eps / 2
	maxLog, _ := logCountBounds(span)
	w := newSegWalker(xs, lo, hi)
	first, stop := window(tauPrime, maxLog/halfEps, n)
	w.jump(first)
	w.stop = stop
	lower := math.Inf(-1)
	for w.next() {
		_, lc := logCountBounds(uint64(w.b) - uint64(w.a))
		lower = max(lower, lc-w.penalty(tauPrime, halfEps))
	}
	bar := lower + xrand.GumbelMin

	w = newSegWalker(xs, lo, hi)
	first, w.stop = window(tauPrime, (maxLog+xrand.GumbelBound(1-0x1p-53)-bar)/halfEps, n)
	for range w.skip(first) {
		rng.Float64Open()
	}
	found := false
	var bestA, bestB int64
	bestKey := math.Inf(-1)
	for w.next() {
		u := rng.Float64Open()
		d := uint64(w.b) - uint64(w.a)
		pen := w.penalty(tauPrime, halfEps)
		if uc, _ := logCountBounds(d); uc-pen+xrand.GumbelBound(u) < max(bar, bestKey) {
			continue
		}
		lw := -pen // log 1 = 0 for a single point
		if d > 0 {
			lw = math.Log(float64(d)+1) - pen
		}
		if key := lw + xrand.GumbelOf(u); key > bestKey {
			bestKey, bestA, bestB, found = key, w.a, w.b, true
		}
	}
	for range w.rest() {
		rng.Float64Open()
	}
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

// window returns the bounds of a walk that must visit every segment within
// reach ranks of tau, where a segment lies len = max(0, tau - le, lt - tau)
// ranks from it. Every group ending at or before record first has le <
// tau - reach, and every segment with lt >= stop has lt > tau + reach;
// first is the largest and stop the smallest such bound. A reach that is
// NaN or infinite covers every segment.
func window(tau, reach float64, n int) (first, stop int) {
	first, stop = 0, n+1
	if x := tau - reach; x > 1 {
		first = int(math.Ceil(x)) - 1
	}
	if x := tau + reach; x < float64(n) {
		stop = int(x) + 1
	}
	return first, stop
}

// segWalker walks, in increasing order, the maximal segments [a, b] of the
// domain [lo, hi] on which the score is constant. The score of a point y is
// -len(y) with len(y) = max(0, tau - rank_le(y), rank_lt(y) - tau), the
// number of records that must change for y to become the tau-th order
// statistic (§2.5); on a segment, rank_lt and rank_le are constants lt and
// le. xs must be sorted; its values are clipped into [lo, hi] as they are
// read, which keeps them sorted.
//
// The sequence is, for each group of equal clipped values v at records
// [i, j): the gap [prev, v-1] below it if it is not empty (lt = le = i),
// then the point [v, v] (lt = i, le = j); after the last group, the gap up
// to hi if one is left (lt = le = n).
type segWalker struct {
	xs      []int64
	lo, hi  int64
	stop    int   // next reports no segment with lt >= stop
	i       int   // first record not yet walked; it starts a group
	prev    int64 // lowest domain point not yet walked
	covered bool  // the walked segments reach hi

	a, b   int64 // the current segment
	lt, le int
}

func newSegWalker(xs []int64, lo, hi int64) segWalker {
	return segWalker{xs: xs, lo: lo, hi: hi, stop: len(xs) + 1, prev: lo}
}

func (w *segWalker) clip(v int64) int64 { return min(max(v, w.lo), w.hi) }

// penalty returns the current segment's halfEps·len.
func (w *segWalker) penalty(tau, halfEps float64) float64 {
	return halfEps * max(0, tau-float64(w.le), float64(w.lt)-tau)
}

// next moves to the next segment. It reports false past the last segment
// and at the first segment with lt >= stop.
func (w *segWalker) next() bool {
	n := len(w.xs)
	if w.covered || w.i >= w.stop {
		return false
	}
	if w.i == n {
		w.a, w.b, w.lt, w.le = w.prev, w.hi, n, n
		w.covered = true
		return true
	}
	v := w.clip(w.xs[w.i])
	if v > w.prev {
		w.a, w.b, w.lt, w.le = w.prev, v-1, w.i, w.i
		w.prev = v
		return true
	}
	j := w.i + 1
	for j < n && w.clip(w.xs[j]) == v {
		j++
	}
	w.a, w.b, w.lt, w.le = v, v, w.i, j
	w.i = j
	if v == w.hi {
		w.covered = true
	} else {
		w.prev = v + 1
	}
	return true
}

// groupStart returns the first record of the group holding record p. For
// lo < v <= hi, clip(x) < v exactly when x < v, so a binary search over
// the unclipped records finds it.
func (w *segWalker) groupStart(p int) int {
	v := w.clip(w.xs[p])
	if v == w.lo {
		return 0
	}
	s, _ := slices.BinarySearch(w.xs[:p], v)
	return s
}

// jump moves a fresh walker to the first record of the group holding
// record p without walking the segments before it.
func (w *segWalker) jump(p int) {
	if w.i = w.groupStart(p); w.i > 0 {
		w.prev = w.clip(w.xs[w.i-1]) + 1
	}
}

// skip moves a fresh walker to the first record of the group holding
// record p and returns the number of segments it passed.
func (w *segWalker) skip(p int) int {
	return w.count(w.groupStart(p))
}

// rest ends the walk and returns the number of segments it had left.
func (w *segWalker) rest() int {
	k := w.count(len(w.xs))
	if !w.covered {
		k++ // the gap up to hi
		w.covered = true
	}
	return k
}

// count walks the groups that start before record end, which must start a
// group or be len(xs), and returns the number of their segments. It does
// no float work.
func (w *segWalker) count(end int) int {
	k := 0
	for ; w.i < end; w.i++ {
		v := w.clip(w.xs[w.i])
		if v < w.prev {
			continue // a later record of the group just counted
		}
		if v > w.prev {
			k++ // the gap below v
		}
		k++
		if v == w.hi {
			w.i, w.covered = len(w.xs), true
			break
		}
		w.prev = v + 1
	}
	return k
}

// QuantileRankSlack returns the (4/eps)·log(|X|/beta) rank-error bound of
// Lemma 2.8, with |X| passed as a float64 domain size.
func QuantileRankSlack(domainSize, eps, beta float64) float64 {
	return 4 / eps * math.Log(domainSize/beta)
}
