package empirical

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dp"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// ---------- Radius (Algorithm 3, Theorem 3.1) ----------

func TestRadiusUpperBound(t *testing.T) {
	// r̃ad <= 2·rad must hold with probability >= 1-beta.
	rng := xrand.New(1)
	for _, radius := range []int64{8, 1 << 10, 1 << 20, 1 << 40} {
		data := make([]int64, 2000)
		for i := range data {
			data[i] = rng.Int64Range(-radius, radius)
		}
		data[0] = radius // pin the true radius
		fails := 0
		for trial := 0; trial < 50; trial++ {
			r, err := Radius(rng, data, 1.0, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if r > 2*radius {
				fails++
			}
		}
		if fails > 8 {
			t.Errorf("rad=%d: r̃ad > 2·rad in %d/50 trials", radius, fails)
		}
	}
}

func TestRadiusCoversMostPoints(t *testing.T) {
	rng := xrand.New(2)
	const n = 5000
	const radius = int64(1) << 30
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int64Range(-radius, radius)
	}
	const eps, beta = 1.0, 0.05
	// Theorem 3.1 outlier bound with a generous constant.
	bound := 60 / eps * math.Log(math.Log(float64(radius))/beta)
	fails := 0
	for trial := 0; trial < 30; trial++ {
		r, err := Radius(rng, data, eps, beta)
		if err != nil {
			t.Fatal(err)
		}
		outside := n - stats.CountInInt64(data, -r, r)
		if float64(outside) > bound {
			fails++
		}
	}
	if fails > 5 {
		t.Errorf("too many outliers in %d/30 trials (bound %.0f)", fails, bound)
	}
}

func TestRadiusAllZeros(t *testing.T) {
	rng := xrand.New(3)
	data := make([]int64, 1000)
	zeros := 0
	for trial := 0; trial < 50; trial++ {
		r, err := Radius(rng, data, 1.0, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			zeros++
		}
	}
	if zeros < 40 {
		t.Errorf("all-zero data yielded rad 0 only %d/50 times", zeros)
	}
}

func TestRadiusHugeValuesClamped(t *testing.T) {
	rng := xrand.New(4)
	data := []int64{math.MaxInt64, math.MinInt64, 0, 0, 0, 0, 0, 0, 0, 0}
	r, err := Radius(rng, data, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0 {
		t.Errorf("negative radius %d", r)
	}
}

func TestRadiusSmallEpsStillValid(t *testing.T) {
	// Tiny eps: noisy, but result must remain a valid radius (>= 0).
	rng := xrand.New(5)
	data := []int64{5, -3, 2, 1, 0, 7, -6, 4, 2, 2}
	for trial := 0; trial < 20; trial++ {
		r, err := Radius(rng, data, 0.01, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0 {
			t.Errorf("negative radius %d", r)
		}
	}
}

func TestRadiusErrors(t *testing.T) {
	rng := xrand.New(6)
	if _, err := Radius(rng, nil, 1, 0.1); !errors.Is(err, dp.ErrEmptyData) {
		t.Error("empty data")
	}
	if _, err := Radius(rng, []int64{1}, 0, 0.1); err == nil {
		t.Error("bad eps")
	}
	if _, err := Radius(rng, []int64{1}, 1, 0); err == nil {
		t.Error("bad beta")
	}
}

// ---------- Range (Algorithm 4, Theorem 3.2) ----------

func TestRangeWidthBound(t *testing.T) {
	// |R̃(D)| <= 4γ(D) even when the data sit far from the origin
	// (rad ≫ γ), which is the whole point of the recentring step.
	rng := xrand.New(7)
	const n = 20000
	const center = int64(1) << 35
	const gamma = int64(1 << 12)
	data := make([]int64, n)
	for i := range data {
		data[i] = center + rng.Int64Range(-gamma/2, gamma/2)
	}
	trueWidth := stats.WidthInt64(data)
	fails := 0
	for trial := 0; trial < 30; trial++ {
		lo, hi, err := Range(rng, data, 1.0, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if hi-lo > 4*trueWidth {
			fails++
		}
	}
	if fails > 5 {
		t.Errorf("|R̃| > 4γ in %d/30 trials", fails)
	}
}

func TestRangeCoversMostPoints(t *testing.T) {
	rng := xrand.New(8)
	const n = 20000
	data := make([]int64, n)
	for i := range data {
		data[i] = 1_000_000 + rng.Int64Range(0, 1<<16)
	}
	const eps, beta = 1.0, 0.05
	gamma := float64(stats.WidthInt64(data))
	bound := 80 / eps * math.Log(math.Log(gamma)/beta)
	fails := 0
	for trial := 0; trial < 30; trial++ {
		lo, hi, err := Range(rng, data, eps, beta)
		if err != nil {
			t.Fatal(err)
		}
		outside := n - stats.CountInInt64(data, lo, hi)
		if float64(outside) > bound {
			fails++
		}
	}
	if fails > 5 {
		t.Errorf("range missed too many points in %d/30 trials (bound %.0f)", fails, bound)
	}
}

func TestRangeValidInterval(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		data := make([]int64, 500)
		for i := range data {
			data[i] = rng.Int64Range(-1000, 1000)
		}
		lo, hi, err := Range(rng, data, 0.5, 0.2)
		return err == nil && lo <= hi
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ---------- Mean (Algorithm 5, Theorems 3.3 / 3.4) ----------

func TestMeanInstanceOptimalError(t *testing.T) {
	// Error should scale like γ(D)/(εn)·loglog γ, not rad(D)/(εn):
	// data concentrated at a huge offset must still be estimated well.
	rng := xrand.New(9)
	const n = 50000
	const center = float64(1 << 40)
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(center) + rng.Int64Range(-500, 500)
	}
	trueMean := meanInt64(data)
	gamma := float64(stats.WidthInt64(data))
	const eps = 1.0
	// Theorem 3.3 bound with a generous constant (beta folded in).
	bound := 200 * gamma / (eps * n) * math.Log(math.Log(gamma)/0.05)
	fails := 0
	for trial := 0; trial < 30; trial++ {
		m, err := Mean(rng, data, eps, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m-trueMean) > bound {
			fails++
		}
	}
	if fails > 5 {
		t.Errorf("mean error above instance bound %.3f in %d/30 trials", bound, fails)
	}
}

func TestMeanPackingHardInstance(t *testing.T) {
	// The Theorem 3.4 lower-bound construction: mostly zeros with
	// loglog(N)/eps copies of 2^i. The estimator should still return
	// something in [0, 2^i] — sanity, not tightness.
	rng := xrand.New(10)
	const n = 10000
	const eps = 1.0
	const big = int64(1) << 20
	k := int(math.Log(math.Log2(float64(big)))/eps) + 1
	data := make([]int64, n)
	for i := 0; i < k; i++ {
		data[i] = big
	}
	m, err := Mean(rng, data, eps, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m < -float64(big) || m > float64(big) {
		t.Errorf("packing instance mean %v wildly out of range", m)
	}
}

func meanInt64(xs []int64) float64 {
	var s float64
	for _, v := range xs {
		s += float64(v)
	}
	return s / float64(len(xs))
}

// ---------- Quantile (Algorithm 6, Theorem 3.5) ----------

func TestQuantileRankErrorLogGamma(t *testing.T) {
	rng := xrand.New(11)
	const n = 20000
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int64Range(0, 1<<20)
	}
	sorted := append([]int64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	const eps, beta = 1.0, 0.05
	gamma := float64(stats.WidthInt64(data))
	bound := 40 / eps * math.Log(gamma/beta)
	for _, tau := range []int{n / 4, n / 2, 3 * n / 4} {
		fails := 0
		for trial := 0; trial < 20; trial++ {
			q, err := Quantile(rng, data, tau, eps, beta)
			if err != nil {
				t.Fatal(err)
			}
			re := rankErrSorted(sorted, tau, q)
			if float64(re) > bound {
				fails++
			}
		}
		if fails > 4 {
			t.Errorf("tau=%d: rank error above %.0f in %d/20 trials", tau, bound, fails)
		}
	}
}

func rankErrSorted(sorted []int64, tau int, y int64) int {
	target := sorted[tau-1]
	lo, hi := target, y
	if lo > hi {
		lo, hi = hi, lo
	}
	cnt := 0
	for _, v := range sorted {
		if v > lo && v < hi {
			cnt++
		}
	}
	return cnt
}

// ---------- Real-domain variants (§3.5, Theorems 3.6-3.9) ----------

func TestDiscretizeRounding(t *testing.T) {
	if Discretize(2.6, 1) != 3 || Discretize(-2.6, 1) != -3 {
		t.Error("rounding")
	}
	if Discretize(0.2, 0.5) != 0 {
		t.Error("bucket scaling")
	}
	if Discretize(1e300, 1) != maxAbs {
		t.Error("overflow clamp high")
	}
	if Discretize(-1e300, 1) != -maxAbs {
		t.Error("overflow clamp low")
	}
	if Discretize(math.NaN(), 1) != 0 {
		t.Error("NaN maps to 0")
	}
}

func TestRealMeanGaussian(t *testing.T) {
	rng := xrand.New(12)
	const n = 50000
	const mu, sigma = 123.456, 2.0
	data := make([]float64, n)
	for i := range data {
		data[i] = mu + sigma*rng.Gaussian()
	}
	b := sigma / 100
	fails := 0
	for trial := 0; trial < 20; trial++ {
		m, err := RealMean(rng, data, b, 1.0, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m-mu) > 1.0 {
			fails++
		}
	}
	if fails > 4 {
		t.Errorf("real mean off in %d/20 trials", fails)
	}
}

func TestRealQuantileMedian(t *testing.T) {
	rng := xrand.New(13)
	const n = 20000
	data := make([]float64, n)
	for i := range data {
		data[i] = 50 + 10*rng.Gaussian()
	}
	fails := 0
	for trial := 0; trial < 20; trial++ {
		q, err := RealQuantile(rng, data, n/2, 0.1, 1.0, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q-50) > 2 {
			fails++
		}
	}
	if fails > 4 {
		t.Errorf("median off in %d/20 trials", fails)
	}
}

func TestRealRadiusBound(t *testing.T) {
	rng := xrand.New(14)
	data := make([]float64, 5000)
	for i := range data {
		data[i] = rng.Laplace(3)
	}
	trueRad := stats.Radius(data)
	const b = 0.01
	fails := 0
	for trial := 0; trial < 20; trial++ {
		r, err := RealRadius(rng, data, b, 1.0, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if r > 2*trueRad+3*b {
			fails++
		}
	}
	if fails > 4 {
		t.Errorf("real radius bound violated in %d/20 trials", fails)
	}
}

func TestRealRangeContainsBulk(t *testing.T) {
	rng := xrand.New(15)
	const n = 20000
	data := make([]float64, n)
	for i := range data {
		data[i] = -7 + 0.5*rng.Gaussian()
	}
	lo, hi, err := RealRange(rng, data, 0.01, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	inside := countIn(data, lo, hi)
	if inside < n*9/10 {
		t.Errorf("range [%v,%v] covers only %d/%d points", lo, hi, inside, n)
	}
}

// countIn returns |D ∩ [lo, hi]|, the coverage oracle for the real range.
func countIn(xs []float64, lo, hi float64) int {
	c := 0
	for _, x := range xs {
		if x >= lo && x <= hi {
			c++
		}
	}
	return c
}

func TestRealBadBucket(t *testing.T) {
	rng := xrand.New(16)
	data := []float64{1, 2, 3}
	for _, b := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := RealMean(rng, data, b, 1, 0.1); !errors.Is(err, ErrBadBucket) {
			t.Errorf("bucket %v should fail", b)
		}
		if _, err := RealQuantile(rng, data, 1, b, 1, 0.1); !errors.Is(err, ErrBadBucket) {
			t.Errorf("quantile bucket %v should fail", b)
		}
		if _, _, err := RealRange(rng, data, b, 1, 0.1); !errors.Is(err, ErrBadBucket) {
			t.Errorf("range bucket %v should fail", b)
		}
		if _, err := RealRadius(rng, data, b, 1, 0.1); !errors.Is(err, ErrBadBucket) {
			t.Errorf("radius bucket %v should fail", b)
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if saturatingAdd(math.MaxInt64, 1) != math.MaxInt64 {
		t.Error("add overflow")
	}
	if saturatingAdd(math.MinInt64, -1) != math.MinInt64 {
		t.Error("add underflow")
	}
	if saturatingSub(0, math.MinInt64) != math.MaxInt64 {
		t.Error("sub MinInt64")
	}
	if saturatingAdd(1, 2) != 3 || saturatingSub(5, 2) != 3 {
		t.Error("basic arithmetic")
	}
}
