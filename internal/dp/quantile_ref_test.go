package dp

import (
	"fmt"
	"math"
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
	return cases
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
