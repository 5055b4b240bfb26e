package dp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refFiniteDomainQuantile is the straightforward Algorithm 2 kept as the
// reference for the two-pass, pruned implementation: it always sorts,
// materializes every segment, and draws a Gumbel for each. The body is
// unchanged from the implementation it replaced.
func refFiniteDomainQuantile(rng *xrand.RNG, data []int64, tau int, lo, hi int64, eps, beta float64) (int64, error) {
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

	xs := make([]int64, n)
	for i, v := range data {
		switch {
		case v < lo:
			xs[i] = lo
		case v > hi:
			xs[i] = hi
		default:
			xs[i] = v
		}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })

	// Enumerate maximal segments of constant score. The score of a point y
	// is -len(y) with len(y) = max(0, tau' - rank_le(y), rank_lt(y) - tau'),
	// the number of records that must change for y to become the tau'-th
	// order statistic (§2.5).
	type segment struct {
		a, b int64 // inclusive
		lw   float64
	}
	segs := make([]segment, 0, 2*n+1)
	halfEps := eps / 2
	addSeg := func(a, b int64, rankLT, rankLE int) {
		if a > b {
			return
		}
		length := math.Max(0, math.Max(tauPrime-float64(rankLE), float64(rankLT)-tauPrime))
		count := float64(uint64(b)-uint64(a)) + 1
		segs = append(segs, segment{a: a, b: b, lw: math.Log(count) - halfEps*length})
	}

	prev := lo       // next uncovered domain point
	covered := false // whether the segment list already reaches hi
	for i := 0; i < n; {
		v := xs[i]
		j := i
		for j < n && xs[j] == v {
			j++
		}
		// Gap strictly before v: rank_lt = rank_le = i throughout.
		if v > prev {
			addSeg(prev, v-1, i, i)
		}
		// The data value itself: rank_lt = i, rank_le = j.
		addSeg(v, v, i, j)
		if v == hi {
			covered = true
			break
		}
		prev = v + 1
		i = j
	}
	if !covered && prev <= hi {
		// Trailing gap above the largest data value: all n records below.
		addSeg(prev, hi, n, n)
	}

	// Gumbel-max sampling over segments == exponential mechanism over X.
	best := -1
	bestKey := math.Inf(-1)
	for k := range segs {
		key := segs[k].lw + rng.Gumbel()
		if key > bestKey {
			bestKey = key
			best = k
		}
	}
	if best < 0 {
		return 0, ErrEmptyDomain
	}
	s := segs[best]
	return rng.Int64Range(s.a, s.b), nil
}

// fdqCase is one FiniteDomainQuantile call.
type fdqCase struct {
	name   string
	data   []int64
	tau    int
	lo, hi int64
	eps    float64
}

// fdqTwinCases returns random cases over several families, sizes, domains
// and budgets, then the edge rows.
func fdqTwinCases() []fdqCase {
	var cases []fdqCase
	src := xrand.New(11)
	families := []struct {
		name string
		draw func() int64
	}{
		{"gauss", func() int64 { return int64(math.Round(4000 + 480*src.Gaussian())) }},
		{"student1.5", func() int64 { return int64(math.Round(100 * src.StudentT(1.5))) }},
		{"rounded-exp", func() int64 { return int64(math.Round(20 * src.Exponential())) }},
		{"neg-pareto", func() int64 { return -int64(math.Round(16 * src.Pareto(1, 1.5))) }},
	}
	for _, f := range families {
		for _, n := range []int{4, 17, 200, 5000} {
			data := make([]int64, n)
			for i := range data {
				data[i] = f.draw()
			}
			sorted := append([]int64(nil), data...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, eps := range []float64{0.02, 0.2, 1, 4} {
				for _, tau := range []int{1, n / 4, n / 2, n} {
					cases = append(cases,
						fdqCase{f.name, data, tau, -1 << 20, 1 << 20, eps},
						fdqCase{f.name + "/sorted", sorted, tau, sorted[0], sorted[n-1], eps},
						fdqCase{f.name + "/narrow", data, tau, sorted[n/4], sorted[n/2], eps})
				}
			}
		}
	}
	equal := []int64{7, 7, 7, 7, 7, 7, 7, 7}
	extremes := []int64{-1 << 61, 1 << 61, 0, -1 << 61, 1 << 61, 3, math.MaxInt64, math.MinInt64}
	cases = append(cases,
		fdqCase{"n=4", []int64{3, -9, 12, 0}, 2, -16, 16, 1},
		fdqCase{"all-equal", equal, 4, -100, 100, 1},
		fdqCase{"all-equal/at-lo", equal, 1, 7, 1000, 0.5},
		fdqCase{"all-equal/at-hi", equal, 8, -1000, 7, 0.5},
		fdqCase{"lo==hi", []int64{1, 2, 3, 4, 5}, 3, 2, 2, 1},
		fdqCase{"lo==hi/outside", []int64{1, 2, 3, 4, 5}, 3, 40, 40, 1},
		fdqCase{"tau=1", []int64{5, 1, 9, 2, 8, 3}, 1, 0, 10, 8},
		fdqCase{"tau=n", []int64{5, 1, 9, 2, 8, 3}, 6, 0, 10, 8},
		fdqCase{"±2^61", extremes, 4, -1 << 61, 1 << 61, 1},
		fdqCase{"±2^61/large-eps", extremes, 2, -1 << 61, 1 << 61, 1e6},
		fdqCase{"full-int64", extremes, 4, math.MinInt64, math.MaxInt64, 1},
		fdqCase{"full-int64/tiny-eps", extremes, 4, math.MinInt64, math.MaxInt64, 1e-300},
	)
	return append(cases, windowedCases()...)
}

// windowedCases are the rows whose walk window cuts the segment sequence:
// far prefixes and suffixes that are only counted, windows at either end
// of the data, data clipped to hi before the array ends, a budget small
// enough that the window covers everything, and heavy duplicates.
func windowedCases() []fdqCase {
	src := xrand.New(17)
	gauss := func(n int, sd float64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(math.Round(sd * src.Gaussian()))
		}
		return xs
	}
	wide, big := gauss(3000, 1000), gauss(20000, 1000)
	sortedWide := slices.Clone(wide)
	slices.Sort(sortedWide)
	dups := make([]int64, 5000)
	for i := range dups {
		dups[i] = int64(src.Intn(4)) * 1000
	}
	n := len(wide)
	return []fdqCase{
		{"window/far-prefix+suffix", wide, n / 2, -1 << 20, 1 << 20, 4},
		{"window/far-prefix+suffix/sorted", sortedWide, n / 3, -1 << 20, 1 << 20, 8},
		{"window/tau=1", wide, 1, -1 << 20, 1 << 20, 1e3},
		{"window/tau=n", wide, n, -1 << 20, 1 << 20, 1e3},
		{"window/tau=1/eps=4", sortedWide, 1, -1 << 20, 1 << 20, 4},
		{"window/tau=n/eps=4", sortedWide, n, -1 << 20, 1 << 20, 4},
		{"window/lo==hi", wide, n / 2, 0, 0, 4},
		{"window/lo==hi/below-data", sortedWide, n / 2, -1 << 30, -1 << 30, 4},
		{"window/clipped-at-hi", sortedWide, n - 5, -1 << 20, sortedWide[n/2], 4},
		{"window/clipped-at-hi/tau-mid", wide, n / 4, sortedWide[n/8], sortedWide[n/2], 2},
		{"window/clipped-at-lo", sortedWide, 5, sortedWide[n/2], 1 << 20, 4},
		{"window/covers-all", wide, n / 2, -1 << 20, 1 << 20, 1e-3},
		{"window/heavy-dups", dups, len(dups) / 2, -1 << 20, 1 << 20, 4},
		{"window/heavy-dups/tight", dups, len(dups) / 3, 0, 3000, 50},
		{"window/n=20k", big, len(big) / 2, -1 << 20, 1 << 20, 4},
		{"window/n=20k/tau=0.9n", big, 9 * len(big) / 10, -1 << 40, 1 << 40, 4},
	}
}

// The two-pass sampler must return what the reference returns and leave
// the generator where the reference leaves it, for every case and seed:
// the pruning may skip work, never change a winner or the stream.
func TestFiniteDomainQuantileMatchesReference(t *testing.T) {
	for _, c := range fdqTwinCases() {
		seeds := 8
		if len(c.data) >= 5000 {
			seeds = 2
		}
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			r1, r2 := xrand.New(seed), xrand.New(seed)
			got, gotErr := FiniteDomainQuantile(r1, c.data, c.tau, c.lo, c.hi, c.eps, 0.05)
			want, wantErr := refFiniteDomainQuantile(r2, c.data, c.tau, c.lo, c.hi, c.eps, 0.05)
			id := fmt.Sprintf("%s n=%d tau=%d [%d,%d] eps=%v seed=%d", c.name, len(c.data), c.tau, c.lo, c.hi, c.eps, seed)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: got (%d, %v), reference (%d, %v)", id, got, gotErr, want, wantErr)
			}
			if a, b := r1.Uint64(), r2.Uint64(); a != b {
				t.Fatalf("%s: generator diverged: next %d, reference %d", id, a, b)
			}
		}
	}
}

func TestLogCountBounds(t *testing.T) {
	var ds []uint64
	for k := uint(0); k < 64; k++ {
		p := uint64(1) << k
		ds = append(ds, p-1, p, p+1)
	}
	ds = append(ds, math.MaxUint64, math.MaxUint64-1, 1<<53+1, 3, 1000)
	for _, d := range ds {
		upper, lower := logCountBounds(d)
		got := math.Log(float64(d) + 1)
		if !(lower <= got && got <= upper) {
			t.Errorf("d=%d: log(d+1) = %v outside [%v, %v]", d, got, lower, upper)
		}
		if upper-lower > math.Ln2+1e-8 {
			t.Errorf("d=%d: bracket [%v, %v] wider than log 2", d, lower, upper)
		}
	}
}

// refSegment is one maximal constant-score segment [a, b] with its rank_lt
// and rank_le.
type refSegment struct {
	a, b   int64
	lt, le int
}

// refSegments lists the segments of sorted data over [lo, hi] the way the
// reference enumerates them: from a clipped copy, in one loop.
func refSegments(xs []int64, lo, hi int64) []refSegment {
	n := len(xs)
	c := make([]int64, n)
	for i, v := range xs {
		c[i] = min(max(v, lo), hi)
	}
	var segs []refSegment
	prev, covered := lo, false
	for i := 0; i < n; {
		v, j := c[i], i
		for j < n && c[j] == v {
			j++
		}
		if v > prev {
			segs = append(segs, refSegment{prev, v - 1, i, i})
		}
		segs = append(segs, refSegment{v, v, i, j})
		if v == hi {
			covered = true
			break
		}
		prev, i = v+1, j
	}
	if !covered && prev <= hi {
		segs = append(segs, refSegment{prev, hi, n, n})
	}
	return segs
}

func walkAll(w *segWalker) []refSegment {
	var segs []refSegment
	for w.next() {
		segs = append(segs, refSegment{w.a, w.b, w.lt, w.le})
	}
	return segs
}

// window's bounds must be exact: first the largest record index below
// tau - reach (0 if none), stop the smallest rank above tau + reach (n+1
// if none). Integer and half-integer tau and reach put the cuts on and
// beside rank boundaries.
func TestWindowBounds(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100} {
		for _, tau := range []float64{1, 1.5, 2, float64(n) / 3, float64(n) / 2, float64(n) - 0.5, float64(n)} {
			if tau < 1 || tau > float64(n) {
				continue // tau is a rank in [1, n]
			}
			for _, reach := range []float64{0, 0.25, 0.5, 1, 2, 3, 3.5, 10, float64(n), 1e300, math.Inf(1), math.NaN()} {
				first, stop := window(tau, reach, n)
				wantFirst, wantStop := 0, n+1
				for p := 0; p < n; p++ {
					if float64(p) < tau-reach {
						wantFirst = p
					}
				}
				for s := n; s >= 0; s-- {
					if float64(s) > tau+reach {
						wantStop = s
					}
				}
				if first != wantFirst || stop != wantStop {
					t.Errorf("n=%d tau=%v reach=%v: window (%d, %d), want (%d, %d)", n, tau, reach, first, stop, wantFirst, wantStop)
				}
			}
		}
	}
}

// A walk must list exactly the reference segments. A windowed walk, by
// jump or by skip, must visit a contiguous run of them that holds every
// segment within reach of tau; skip and rest must count the segments
// before and after that run.
func TestSegWalkerMatchesReference(t *testing.T) {
	for _, c := range fdqTwinCases() {
		xs := slices.Clone(c.data)
		slices.Sort(xs)
		n := len(xs)
		want := refSegments(xs, c.lo, c.hi)
		w := newSegWalker(xs, c.lo, c.hi)
		if got := walkAll(&w); !slices.Equal(got, want) {
			t.Fatalf("%s n=%d [%d,%d]: walk differs from the reference segments", c.name, n, c.lo, c.hi)
		}
		if k := w.rest(); k != 0 {
			t.Fatalf("%s: rest after a full walk = %d", c.name, k)
		}
		for _, tau := range []float64{1, 2.5, float64(n) / 3, float64(n)/2 + 0.25, float64(n)} {
			for _, reach := range []float64{0, 0.5, 1, 2, 7, float64(n) / 4, float64(n)} {
				id := fmt.Sprintf("%s n=%d [%d,%d] tau=%v reach=%v", c.name, n, c.lo, c.hi, tau, reach)
				first, stop := window(tau, reach, n)
				j := newSegWalker(xs, c.lo, c.hi)
				j.jump(first)
				j.stop = stop
				jumped := walkAll(&j)
				s := newSegWalker(xs, c.lo, c.hi)
				before := s.skip(first)
				s.stop = stop
				walked := walkAll(&s)
				after := s.rest()
				if !slices.Equal(jumped, walked) {
					t.Fatalf("%s: jump and skip walks differ", id)
				}
				if before+len(walked)+after != len(want) || !slices.Equal(walked, want[before:before+len(walked)]) {
					t.Fatalf("%s: skip %d + walk %d + rest %d is not the %d reference segments", id, before, len(walked), after, len(want))
				}
				for k, seg := range want {
					dist := max(0, tau-float64(seg.le), float64(seg.lt)-tau)
					if dist <= reach && (k < before || k >= before+len(walked)) {
						t.Fatalf("%s: segment %d %+v is %v ranks from tau but not walked", id, k, seg, dist)
					}
				}
			}
		}
	}
}
