package empirical

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dp"
	"repro/internal/xrand"
)

// The reference pipeline below is Algorithms 3, 4 and 6 as they were
// before Radius became a one-pass histogram and the quantile pipeline
// sorted once: Radius rescans the data for every SVT query, and every
// stage works on its own clamped copy. The bodies are unchanged apart
// from the ref prefix. dp.FiniteDomainQuantile has its own reference twin.

func refClampAll(data []int64) []int64 {
	out := make([]int64, len(data))
	for i, v := range data {
		out[i] = clampInt64(v)
	}
	return out
}

func refRadius(rng *xrand.RNG, data []int64, eps, beta float64) (int64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return 0, dp.ErrEmptyData
	}
	xs := refClampAll(data)
	n := float64(len(xs))

	threshold := n - dp.SVTLemma26Slack(eps, beta)
	idx, err := dp.SVT(rng, threshold, eps, func(i int) (float64, bool) {
		// Query 1 is Count(D, 0); query i >= 2 is Count(D, 2^(i-2)).
		var bound int64
		if i == 1 {
			bound = 0
		} else {
			shift := uint(i - 2)
			if shift >= 63 {
				bound = math.MaxInt64
			} else {
				bound = int64(1) << shift
			}
		}
		cnt := 0
		for _, v := range xs {
			if v >= -bound && v <= bound {
				cnt++
			}
		}
		return float64(cnt), true
	}, maxRadiusQueries)
	if err != nil {
		// The cap is unreachable except under extreme noise; fall back to
		// the largest representable radius (a data-independent constant).
		return maxAbs, nil
	}
	if idx == 1 {
		return 0, nil
	}
	shift := uint(idx - 2)
	if shift >= 62 {
		return maxAbs, nil
	}
	return int64(1) << shift, nil
}

func refRange(rng *xrand.RNG, data []int64, eps, beta float64) (lo, hi int64, err error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, 0, err
	}
	if len(data) == 0 {
		return 0, 0, dp.ErrEmptyData
	}
	xs := refClampAll(data)

	rad1, err := refRadius(rng, xs, eps/8, beta/3)
	if err != nil {
		return 0, 0, err
	}

	// Clip into [-rad1, rad1] and take a private median over that finite
	// domain (Algorithm 4 lines 2-3). FiniteDomainQuantile clips internally.
	med, err := dp.FiniteDomainQuantile(rng, xs, len(xs)/2, -rad1, rad1, eps/8, beta/3)
	if err != nil {
		return 0, 0, err
	}

	// Recentre (|med| <= rad1 <= maxAbs and |x| <= maxAbs, so the
	// subtraction stays within int64) and re-estimate the radius.
	shifted := make([]int64, len(xs))
	for i, v := range xs {
		shifted[i] = v - med
	}
	rad2, err := refRadius(rng, shifted, 3*eps/4, beta/3)
	if err != nil {
		return 0, 0, err
	}

	// [med - rad2, med + rad2], saturating.
	lo = saturatingSub(med, rad2)
	hi = saturatingAdd(med, rad2)
	return lo, hi, nil
}

func refQuantile(rng *xrand.RNG, data []int64, tau int, eps, beta float64) (int64, error) {
	lo, hi, err := refRange(rng, data, 4*eps/5, beta/2)
	if err != nil {
		return 0, err
	}
	return dp.FiniteDomainQuantile(rng, refClampAll(data), tau, lo, hi, eps/5, beta/2)
}

func refQuantiles(rng *xrand.RNG, data []int64, taus []int, eps, beta float64) ([]int64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return nil, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return nil, err
	}
	if len(taus) == 0 {
		return nil, ErrNoQuantiles
	}
	if len(data) == 0 {
		return nil, dp.ErrEmptyData
	}
	uniq := distinctSorted(taus)
	k := float64(len(uniq))

	lo, hi, err := refRange(rng, data, 4*eps/5, beta/2)
	if err != nil {
		return nil, err
	}
	clamped := refClampAll(data)

	vals := make([]int64, len(uniq))
	for i, tau := range uniq {
		q, err := dp.FiniteDomainQuantile(rng, clamped, tau, lo, hi, eps/5/k, beta/2/k)
		if err != nil {
			return nil, err
		}
		vals[i] = q
	}
	// Monotone projection: uniq is strictly increasing, so sorting the
	// released values and matching by position enforces monotonicity.
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })

	byRank := make(map[int]int64, len(uniq))
	for i, tau := range uniq {
		byRank[tau] = vals[i]
	}
	out := make([]int64, len(taus))
	for i, tau := range taus {
		out[i] = byRank[tau]
	}
	return out, nil
}

// twinData returns integer datasets over several families and sizes,
// then the edge rows.
func twinData() map[string][]int64 {
	src := xrand.New(21)
	out := make(map[string][]int64)
	families := map[string]func() int64{
		"gauss":       func() int64 { return int64(math.Round(16 * (250 + 30*src.Gaussian()))) },
		"student1.5":  func() int64 { return int64(math.Round(100 * src.StudentT(1.5))) },
		"rounded-exp": func() int64 { return int64(math.Round(20 * src.Exponential())) },
		"neg-pareto":  func() int64 { return -int64(math.Round(16 * src.Pareto(1, 1.5))) },
	}
	for _, name := range []string{"gauss", "student1.5", "rounded-exp", "neg-pareto"} {
		for _, n := range []int{4, 17, 200, 5000} {
			data := make([]int64, n)
			for i := range data {
				data[i] = families[name]()
			}
			out[fmt.Sprintf("%s/n=%d", name, n)] = data
		}
	}
	out["n=4"] = []int64{3, -9, 12, 0}
	out["all-equal"] = []int64{-5, -5, -5, -5, -5, -5, -5, -5, -5}
	out["all-zero"] = make([]int64, 12)
	out["±2^61"] = []int64{1 << 61, -1 << 61, 1 << 61, 0, -1 << 61, 1<<61 - 1, 5}
	out["int64-extremes"] = []int64{math.MaxInt64, math.MinInt64, math.MaxInt64, 1, math.MinInt64, -3, 1 << 62}
	out["sorted"] = slices.Sorted(slices.Values(out["gauss/n=200"]))
	out["int64-extremes/sorted"] = slices.Sorted(slices.Values(out["int64-extremes"]))
	// Sorted, with half the values past maxAbs: the released range then
	// reaches beyond 2^61, where clamped and unclamped values clip apart.
	out["past-2^61/sorted"] = append(slices.Repeat([]int64{1<<61 - 1000}, 1000), slices.Repeat([]int64{math.MaxInt64}, 1000)...)
	out["beyond-2^61/sorted"] = []int64{-1 << 62, 1<<61 - 3, 1 << 61, 1<<61 + 1, 1<<61 + 1, 1 << 62, math.MaxInt64}
	return out
}

// Every stage of the one-sort pipeline must return what the reference
// returns and leave the generator where the reference leaves it.
func TestPipelineMatchesReference(t *testing.T) {
	type stage struct {
		name string
		run  func(r *xrand.RNG, data []int64, eps float64) string
		ref  func(r *xrand.RNG, data []int64, eps float64) string
	}
	str := func(v any, err error) string { return fmt.Sprint(v, err) }
	stages := []stage{
		{"Radius",
			func(r *xrand.RNG, d []int64, eps float64) string { return str(Radius(r, d, eps, 0.1)) },
			func(r *xrand.RNG, d []int64, eps float64) string { return str(refRadius(r, d, eps, 0.1)) }},
		{"Range",
			func(r *xrand.RNG, d []int64, eps float64) string {
				lo, hi, err := Range(r, d, eps, 0.1)
				return str([]int64{lo, hi}, err)
			},
			func(r *xrand.RNG, d []int64, eps float64) string {
				lo, hi, err := refRange(r, d, eps, 0.1)
				return str([]int64{lo, hi}, err)
			}},
		{"Quantile/tau=1",
			func(r *xrand.RNG, d []int64, eps float64) string { return str(Quantile(r, d, 1, eps, 0.1)) },
			func(r *xrand.RNG, d []int64, eps float64) string { return str(refQuantile(r, d, 1, eps, 0.1)) }},
		{"Quantile/tau=n/2",
			func(r *xrand.RNG, d []int64, eps float64) string { return str(Quantile(r, d, len(d)/2, eps, 0.1)) },
			func(r *xrand.RNG, d []int64, eps float64) string { return str(refQuantile(r, d, len(d)/2, eps, 0.1)) }},
		{"Quantile/tau=n",
			func(r *xrand.RNG, d []int64, eps float64) string { return str(Quantile(r, d, len(d), eps, 0.1)) },
			func(r *xrand.RNG, d []int64, eps float64) string { return str(refQuantile(r, d, len(d), eps, 0.1)) }},
		{"Quantiles",
			func(r *xrand.RNG, d []int64, eps float64) string {
				return str(Quantiles(r, d, []int{len(d), 1, len(d) / 2, 1}, eps, 0.1))
			},
			func(r *xrand.RNG, d []int64, eps float64) string {
				return str(refQuantiles(r, d, []int{len(d), 1, len(d) / 2, 1}, eps, 0.1))
			}},
	}
	for name, data := range twinData() {
		seeds := 6
		if len(data) >= 5000 {
			seeds = 2
		}
		for _, s := range stages {
			for _, eps := range []float64{0.1, 1, 4} {
				for seed := uint64(1); seed <= uint64(seeds); seed++ {
					r1, r2 := xrand.New(seed), xrand.New(seed)
					got, want := s.run(r1, data, eps), s.ref(r2, data, eps)
					if got != want {
						t.Fatalf("%s %s eps=%v seed=%d: got %s, reference %s", s.name, name, eps, seed, got, want)
					}
					if a, b := r1.Uint64(), r2.Uint64(); a != b {
						t.Fatalf("%s %s eps=%v seed=%d: generator diverged", s.name, name, eps, seed)
					}
				}
			}
		}
	}
}

// NaN and out-of-range reals reach the integer pipeline through
// Discretize (NaN maps to bucket 0, so the discretized data is not sorted
// in the order of the reals); the sorted-bucket path must still match the
// reference, as must the caller's data, which is never reordered.
func TestRealQuantileNaNMatchesReference(t *testing.T) {
	data := []float64{3.2, math.NaN(), -7.5, 1e300, math.NaN(), -1e300, 0.4, 12, math.Inf(1), -2}
	orig := slices.Clone(data)
	for _, tau := range []int{1, 5, len(data)} {
		for seed := uint64(1); seed <= 6; seed++ {
			r1, r2 := xrand.New(seed), xrand.New(seed)
			got, gotErr := RealQuantile(r1, data, tau, 0.5, 1, 0.1)
			q, wantErr := refQuantile(r2, DiscretizeAll(data, 0.5), tau, 1, 0.1)
			want := float64(q) * 0.5
			if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("tau=%d seed=%d: got (%v, %v), reference (%v, %v)", tau, seed, got, gotErr, want, wantErr)
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("tau=%d seed=%d: generator diverged", tau, seed)
			}
		}
	}
	for i := range data {
		if math.Float64bits(data[i]) != math.Float64bits(orig[i]) {
			t.Fatal("RealQuantile modified its input")
		}
	}
}

// sortedClamped may hand back its input, so the pipeline must never write
// through it: a Quantile call leaves sorted, in-range data untouched.
func TestQuantileLeavesSortedInputUntouched(t *testing.T) {
	data := slices.Sorted(slices.Values(twinData()["gauss/n=200"]))
	orig := slices.Clone(data)
	if _, err := Quantile(xrand.New(1), data, 50, 1, 0.1); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(data, orig) {
		t.Fatal("Quantile modified its sorted input")
	}
}

// refRealRange is RealRange as it ran before it sorted its buckets: Range
// over the discretized data in input order, whose private median then
// sorted its own copy.
func refRealRange(rng *xrand.RNG, data []float64, b, eps, beta float64) (lo, hi float64, err error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, 0, ErrBadBucket
	}
	ilo, ihi, err := Range(rng, DiscretizeAll(data, b), eps, beta)
	if err != nil {
		return 0, 0, err
	}
	return (float64(ilo) - 0.5) * b, (float64(ihi) + 0.5) * b, nil
}

// RealRange over sorted buckets must release the range the unsorted path
// releases, bit for bit, and leave the generator where it leaves it —
// over the twin families scaled to reals, NaN, ±Inf and ±0, at buckets
// that put many values in one bucket and few.
func TestRealRangeMatchesReference(t *testing.T) {
	sets := map[string][]float64{
		"edge": {3.2, math.NaN(), -7.5, 1e300, math.Copysign(0, -1), -1e300, 0.4, 12, math.Inf(1), 0, math.Inf(-1), -2},
	}
	for name, ints := range twinData() {
		fs := make([]float64, len(ints))
		for i, v := range ints {
			fs[i] = float64(v) / 16
		}
		sets[name] = fs
	}
	for name, data := range sets {
		orig := slices.Clone(data)
		for _, b := range []float64{1.0 / 64, 1, 40} {
			for _, eps := range []float64{0.1, 1, 4} {
				for seed := uint64(1); seed <= 3; seed++ {
					r1, r2 := xrand.New(seed), xrand.New(seed)
					lo, hi, err := RealRange(r1, data, b, eps, 0.1)
					wlo, whi, werr := refRealRange(r2, data, b, eps, 0.1)
					if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) || fmt.Sprint(err) != fmt.Sprint(werr) {
						t.Fatalf("%s b=%v eps=%v seed=%d: got (%v, %v, %v), reference (%v, %v, %v)", name, b, eps, seed, lo, hi, err, wlo, whi, werr)
					}
					if r1.Uint64() != r2.Uint64() {
						t.Fatalf("%s b=%v eps=%v seed=%d: generator diverged", name, b, eps, seed)
					}
				}
			}
		}
		for i := range data {
			if math.Float64bits(data[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("%s: RealRange modified its input", name)
			}
		}
	}
}
