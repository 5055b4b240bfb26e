package empirical

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dp"
	"repro/internal/xrand"
)

func sortedCopyInt64(xs []int64) []int64 {
	out := make([]int64, len(xs))
	copy(out, xs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestQuantilesRankError(t *testing.T) {
	// Each released value must sit within a modest rank window of its
	// target, like the single-quantile mechanism (Theorem 3.5 per rank).
	rng := xrand.New(11)
	n := 5000
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i) - 2500
	}
	taus := []int{n / 4, n / 2, 3 * n / 4}
	sorted := sortedCopyInt64(data)

	fails := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		qs, err := Quantiles(rng, data, taus, 1.0, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for i, tau := range taus {
			// Rank window: mechanism slack is O(log γ/ε); γ=5000 here, so
			// several hundred ranks is generous but non-vacuous (n/10).
			loIdx, hiIdx := tau-500, tau+500
			if loIdx < 1 {
				loIdx = 1
			}
			if hiIdx > n {
				hiIdx = n
			}
			if qs[i] < sorted[loIdx-1] || qs[i] > sorted[hiIdx-1] {
				fails++
			}
		}
	}
	if fails > trials*len(taus)/5 {
		t.Errorf("rank window violated %d/%d times", fails, trials*len(taus))
	}
}

func TestQuantilesMonotoneInRank(t *testing.T) {
	// The projection must make outputs monotone in tau even when taus are
	// passed out of order.
	rng := xrand.New(12)
	data := make([]int64, 1000)
	for i := range data {
		data[i] = int64(rng.Intn(100000))
	}
	taus := []int{900, 100, 500, 100, 999}
	for trial := 0; trial < 25; trial++ {
		qs, err := Quantiles(rng, data, taus, 0.5, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range taus {
			for j := range taus {
				if taus[i] <= taus[j] && qs[i] > qs[j] {
					t.Fatalf("monotonicity violated: tau %d -> %d but tau %d -> %d",
						taus[i], qs[i], taus[j], qs[j])
				}
			}
		}
	}
}

func TestQuantilesMatchesSingleOnOneRank(t *testing.T) {
	// With a single rank, Quantiles must behave like Quantile (same budget
	// split), not identically (different randomness) but with similar error.
	rng := xrand.New(13)
	data := make([]int64, 2000)
	for i := range data {
		data[i] = int64(i)
	}
	qs, err := Quantiles(rng, data, []int{1000}, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(qs[0])-1000) > 400 {
		t.Errorf("single-rank Quantiles far off: got %d want ~1000", qs[0])
	}
}

func TestQuantilesErrors(t *testing.T) {
	rng := xrand.New(14)
	data := []int64{1, 2, 3, 4}
	if _, err := Quantiles(rng, data, nil, 1, 0.1); !errors.Is(err, ErrNoQuantiles) {
		t.Errorf("want ErrNoQuantiles, got %v", err)
	}
	if _, err := Quantiles(rng, nil, []int{1}, 1, 0.1); !errors.Is(err, dp.ErrEmptyData) {
		t.Errorf("want ErrEmptyData, got %v", err)
	}
	if _, err := Quantiles(rng, data, []int{1}, -1, 0.1); !errors.Is(err, dp.ErrInvalidEpsilon) {
		t.Errorf("want ErrInvalidEpsilon, got %v", err)
	}
	if _, err := Quantiles(rng, data, []int{1}, 1, 2); !errors.Is(err, dp.ErrInvalidBeta) {
		t.Errorf("want ErrInvalidBeta, got %v", err)
	}
}

func TestRealQuantilesBucketScaling(t *testing.T) {
	// Real-domain wrapper: results should track the continuous quantiles
	// within a few buckets plus rank error.
	rng := xrand.New(15)
	n := 4000
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i) / 100 // uniform grid on [0, 40)
	}
	qs, err := RealQuantiles(rng, make([]int64, len(data)), data, []int{n / 4, 3 * n / 4}, 0.01, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qs[0]-10) > 4 || math.Abs(qs[1]-30) > 4 {
		t.Errorf("real quantiles off: got %v want ~[10, 30]", qs)
	}
}

func TestRealQuantilesBadBucket(t *testing.T) {
	rng := xrand.New(16)
	data := []float64{1, 2, 3, 4}
	for _, b := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := RealQuantiles(rng, make([]int64, len(data)), data, []int{1}, b, 1, 0.1); !errors.Is(err, ErrBadBucket) {
			t.Errorf("bucket %v: want ErrBadBucket, got %v", b, err)
		}
	}
}

func TestDistinctSortedProperty(t *testing.T) {
	// Property: distinctSorted returns a strictly increasing slice covering
	// exactly the set of inputs.
	f := func(taus []int16) bool {
		if len(taus) == 0 {
			return true
		}
		in := make([]int, len(taus))
		set := map[int]bool{}
		for i, v := range taus {
			in[i] = int(v)
			set[int(v)] = true
		}
		out := distinctSorted(in)
		if len(out) != len(set) {
			return false
		}
		for i, v := range out {
			if !set[v] {
				return false
			}
			if i > 0 && out[i-1] >= v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantilesDuplicateRanksEqualValues(t *testing.T) {
	// Duplicate ranks must receive identical values (and cost no extra
	// budget, since only distinct ranks are released).
	rng := xrand.New(17)
	data := make([]int64, 500)
	for i := range data {
		data[i] = int64(i)
	}
	qs, err := Quantiles(rng, data, []int{250, 100, 250, 250}, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] != qs[2] || qs[0] != qs[3] {
		t.Errorf("duplicate ranks got different values: %v", qs)
	}
	if qs[1] > qs[0] {
		t.Errorf("rank 100 value %d above rank 250 value %d", qs[1], qs[0])
	}
}
