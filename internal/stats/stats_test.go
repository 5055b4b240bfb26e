package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumCompensated(t *testing.T) {
	// Classic Neumaier stress: 1 + 1e100 + 1 - 1e100 should be 2.
	xs := []float64{1, 1e100, 1, -1e100}
	if got := Sum(xs); got != 2 {
		t.Errorf("Sum = %v, want 2", got)
	}
}

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v", got)
	}
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceBasic(t *testing.T) {
	// Population variance of {1,2,3,4} is 1.25.
	if got := Variance([]float64{1, 2, 3, 4}); !almostEq(got, 1.25, 1e-12) {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if got := Variance([]float64{5, 5, 5}); got != 0 {
		t.Errorf("Variance of constant = %v", got)
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance(nil) should be NaN")
	}
}

func TestVarianceShiftInvariance(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.Gaussian()
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 1e6
		}
		return almostEq(Variance(xs), Variance(shifted), 1e-6)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCentralMoment(t *testing.T) {
	xs := []float64{-1, 1}
	if got := CentralMoment(xs, 2); !almostEq(got, 1, 1e-12) {
		t.Errorf("mu_2 = %v, want 1", got)
	}
	if got := CentralMoment(xs, 4); !almostEq(got, 1, 1e-12) {
		t.Errorf("mu_4 = %v, want 1", got)
	}
}

func TestOrderStatClamping(t *testing.T) {
	s := []float64{1, 2, 3}
	if OrderStat(s, 0) != 1 {
		t.Error("tau<1 should clamp to X_1")
	}
	if OrderStat(s, 4) != 3 {
		t.Error("tau>n should clamp to X_n")
	}
	if OrderStat(s, 2) != 2 {
		t.Error("tau=2")
	}
}

func TestQuantileConvention(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	// ceil(0.25*4)=1 -> X_1; ceil(0.75*4)=3 -> X_3.
	if got := Quantile(xs, 0.25); got != 10 {
		t.Errorf("Q(0.25) = %v", got)
	}
	if got := Quantile(xs, 0.75); got != 30 {
		t.Errorf("Q(0.75) = %v", got)
	}
	if got := Median(xs); got != 20 {
		t.Errorf("Median = %v", got)
	}
}

func TestIQRGaussianApprox(t *testing.T) {
	rng := xrand.New(1)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.Gaussian()
	}
	// Standard normal IQR = 2*0.67449 = 1.3490.
	if got := IQR(xs); !almostEq(got, 1.349, 0.02) {
		t.Errorf("IQR = %v, want ~1.349", got)
	}
}

func TestRadius(t *testing.T) {
	xs := []float64{-3, 1, 7}
	if Radius(xs) != 7 {
		t.Errorf("Radius = %v", Radius(xs))
	}
	if !math.IsNaN(Radius(nil)) {
		t.Error("empty input should be NaN")
	}
}

func TestWidthInt64(t *testing.T) {
	if WidthInt64([]int64{-5, 3}) != 8 {
		t.Error("WidthInt64 basic")
	}
	if WidthInt64([]int64{7}) != 0 {
		t.Error("WidthInt64 singleton")
	}
	if WidthInt64([]int64{math.MinInt64, math.MaxInt64}) != math.MaxInt64 {
		t.Error("WidthInt64 should saturate")
	}
}

func TestClip(t *testing.T) {
	if Clip(5, 0, 3) != 3 || Clip(-1, 0, 3) != 0 || Clip(2, 0, 3) != 2 {
		t.Error("Clip")
	}
}

func TestClippedMean(t *testing.T) {
	xs := []float64{-100, 0, 100}
	if got := ClippedMean(xs, -1, 1); got != 0 {
		t.Errorf("ClippedMean = %v", got)
	}
	xs2 := []float64{-100, 1, 100}
	// clip to [-1,1]: -1, 1, 1 -> mean 1/3.
	if got := ClippedMean(xs2, -1, 1); !almostEq(got, 1.0/3, 1e-12) {
		t.Errorf("ClippedMean = %v", got)
	}
}

func TestClippedMeanMatchesClipSliceMean(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = rng.Laplace(10)
		}
		a := ClippedMean(xs, -3, 3)
		clipped := make([]float64, len(xs))
		for i, x := range xs {
			clipped[i] = Clip(x, -3, 3)
		}
		b := Mean(clipped)
		return almostEq(a, b, 1e-9)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCountIn(t *testing.T) {
	if CountInInt64([]int64{1, 2, 3, 4, 5}, 2, 4) != 3 {
		t.Error("CountInInt64")
	}
	if CountInInt64([]int64{-2, 0, 2}, -1, 1) != 1 {
		t.Error("CountInInt64")
	}
}

// pairDistances is Algorithm 7's G multiset built through Pairs.
func pairDistances(rng *xrand.RNG, xs []float64) []float64 {
	var g []float64
	Pairs(rng, len(xs), func(a, b int) { g = append(g, math.Abs(xs[a]-xs[b])) })
	return g
}

func TestPairDistancesProperties(t *testing.T) {
	rng := xrand.New(9)
	xs := []float64{1, 5, 9, 13, 2}
	g := pairDistances(rng, xs)
	if len(g) != 2 {
		t.Fatalf("len = %d, want 2 (odd element dropped)", len(g))
	}
	for _, v := range g {
		if v < 0 {
			t.Error("distances must be non-negative")
		}
	}
}

// Pairs must pair what rng.Perm(n) read two at a time pairs, and leave
// the generator where Perm leaves it, for odd and even n.
func TestPairsMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 7, 10, 101, 1000} {
		for seed := uint64(1); seed <= 4; seed++ {
			r1, r2 := xrand.New(seed), xrand.New(seed)
			var got [][2]int
			Pairs(r1, n, func(a, b int) { got = append(got, [2]int{a, b}) })
			perm := r2.Perm(n)
			if len(got) != n/2 {
				t.Fatalf("n=%d seed=%d: %d pairs, want %d", n, seed, len(got), n/2)
			}
			for i, p := range got {
				if p != [2]int{perm[2*i], perm[2*i+1]} {
					t.Fatalf("n=%d seed=%d: pair %d is %v, Perm gives %v", n, seed, i, p, perm[2*i:2*i+2])
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("n=%d seed=%d: generator diverged from Perm", n, seed)
			}
		}
	}
}

func TestPairSquaresExpectation(t *testing.T) {
	// E[(X-X')^2] = 2 sigma^2.
	rng := xrand.New(11)
	const sigma = 3.0
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.Gaussian() * sigma
	}
	h := PairSquares(rng, xs)
	if got, want := Mean(h), 2*sigma*sigma; math.Abs(got-want) > 0.5 {
		t.Errorf("mean pair square = %v, want ~%v", got, want)
	}
}

func TestPairUsesEachElementOnce(t *testing.T) {
	rng := xrand.New(13)
	xs := []float64{0, 10, 20, 30}
	g := pairDistances(rng, xs)
	// Sum of pair distances must be formable from disjoint pairs; with 4
	// distinct spaced values all pairings give positive distances.
	if len(g) != 2 || g[0] == 0 || g[1] == 0 {
		t.Errorf("unexpected pairing %v", g)
	}
}

func TestSubsample(t *testing.T) {
	rng := xrand.New(17)
	xs := []float64{1, 2, 3, 4, 5}
	s := Subsample(rng, xs, 3)
	if len(s) != 3 {
		t.Fatal("len")
	}
	seen := map[float64]int{}
	for _, v := range s {
		seen[v]++
		if seen[v] > 1 {
			t.Error("subsample repeated an element")
		}
	}
}

func TestQuantilePropertyMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		xs := make([]float64, 33)
		for i := range xs {
			xs[i] = rng.Laplace(5)
		}
		return Quantile(xs, 0.25) <= Quantile(xs, 0.5) &&
			Quantile(xs, 0.5) <= Quantile(xs, 0.75)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClippedMeanWithinBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = rng.StudentT(2.5) * 100
		}
		m := ClippedMean(xs, -7, 13)
		return m >= -7 && m <= 13
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
