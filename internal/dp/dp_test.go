package dp

import (
	"errors"
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestCheckEpsilon(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if CheckEpsilon(bad) == nil {
			t.Errorf("CheckEpsilon(%v) should fail", bad)
		}
	}
	if CheckEpsilon(0.5) != nil {
		t.Error("CheckEpsilon(0.5) should pass")
	}
}

func TestCheckBeta(t *testing.T) {
	for _, bad := range []float64{0, 1, -0.1, 1.5, math.NaN()} {
		if CheckBeta(bad) == nil {
			t.Errorf("CheckBeta(%v) should fail", bad)
		}
	}
	if CheckBeta(1.0/3) != nil {
		t.Error("CheckBeta(1/3) should pass")
	}
}

func TestLaplaceMechanismUnbiased(t *testing.T) {
	rng := xrand.New(1)
	const trials = 200000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += Laplace(rng, 10, 1, 0.5)
	}
	if got := sum / trials; math.Abs(got-10) > 0.1 {
		t.Errorf("mean release = %v, want ~10", got)
	}
}

func TestLaplaceTail(t *testing.T) {
	// t = scale*ln(1/beta): at beta=e^-1, t=scale.
	if got := LaplaceTail(2, math.Exp(-1)); math.Abs(got-2) > 1e-12 {
		t.Errorf("LaplaceTail = %v", got)
	}
}

// amplifiedEps is the privacy parameter of a mechanism with budget epsSub
// run on an eta-fraction subsample drawn without replacement (Theorem
// 2.4): log(1 + eta*(e^epsSub - 1)). SubsampleBudget must invert it.
func amplifiedEps(epsSub, eta float64) float64 {
	return math.Log1p(eta * math.Expm1(epsSub))
}

func TestAmplificationRoundTrip(t *testing.T) {
	for _, eta := range []float64{0.01, 0.1, 0.5} {
		for _, eps := range []float64{0.1, 0.5, 1} {
			sub := SubsampleBudget(eps, eta)
			back := amplifiedEps(sub, eta)
			if math.Abs(back-eps) > 1e-12 {
				t.Errorf("eta=%v eps=%v: round trip %v", eta, eps, back)
			}
			if sub < eps {
				t.Errorf("subsample budget %v should exceed total %v", sub, eps)
			}
		}
	}
	// Small-eps approximation: amplified ~ eta*eps.
	if got := amplifiedEps(0.001, 0.1); math.Abs(got-0.0001) > 1e-6 {
		t.Errorf("small-eps amplification = %v", got)
	}
	if got := SubsampleBudget(1, 1); got != 1 {
		t.Errorf("eta=1 should be identity, got %v", got)
	}
}

func TestBasicLedger(t *testing.T) {
	a, err := NewBasicLedger(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(EpsCost(0.6)); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(EpsCost(0.5)); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("overdraw should fail, got %v", err)
	}
	if err := a.Spend(EpsCost(0.4)); err != nil {
		t.Errorf("exact-fit spend should pass: %v", err)
	}
	if r := a.Remaining(); r > 1e-9 {
		t.Errorf("remaining = %v", r)
	}
	if s := a.Spent(); math.Abs(s-1) > 1e-12 {
		t.Errorf("spent = %v", s)
	}
	if _, err := NewBasicLedger(-1); err == nil {
		t.Error("negative budget should fail")
	}
}

func TestSVTStopsAtHighQuery(t *testing.T) {
	// Queries: 0,0,...,0,100 with threshold 50: must stop at the jump.
	rng := xrand.New(2)
	const jump = 20
	stops := map[int]int{}
	for trial := 0; trial < 200; trial++ {
		idx, err := SVT(rng, 50, 1.0, func(i int) (float64, bool) {
			if i < jump {
				return 0, true
			}
			return 100, true
		}, 100)
		if err != nil {
			t.Fatal(err)
		}
		stops[idx]++
	}
	if stops[jump] < 150 {
		t.Errorf("SVT stop distribution %v, want mostly %d", stops, jump)
	}
}

func TestSVTLemma25DoesNotStopEarly(t *testing.T) {
	// All queries far below threshold: SVT should exhaust the cap.
	rng := xrand.New(3)
	early := 0
	for trial := 0; trial < 100; trial++ {
		idx, err := SVT(rng, 1000, 1.0, func(i int) (float64, bool) {
			return 0, true
		}, 50)
		if err == nil && idx > 0 {
			early++
		}
	}
	if early > 2 {
		t.Errorf("SVT stopped early %d/100 times with a huge margin", early)
	}
}

func TestSVTSequenceEnd(t *testing.T) {
	rng := xrand.New(4)
	_, err := SVT(rng, 1000, 1.0, func(i int) (float64, bool) {
		if i > 5 {
			return 0, false
		}
		return 0, true
	}, 0)
	if !errors.Is(err, ErrSVTNoStop) {
		t.Errorf("want ErrSVTNoStop, got %v", err)
	}
}

func TestSVTInvalidEps(t *testing.T) {
	rng := xrand.New(5)
	if _, err := SVT(rng, 0, -1, func(i int) (float64, bool) { return 0, true }, 10); err == nil {
		t.Error("invalid eps should fail")
	}
}

func TestSVTLemma26Slack(t *testing.T) {
	got := SVTLemma26Slack(0.5, 0.1)
	want := 6 / 0.5 * math.Log(20.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("slack = %v, want %v", got, want)
	}
}

func TestClippedMeanBasic(t *testing.T) {
	rng := xrand.New(6)
	data := []float64{1, 2, 3, 4, 1000}
	// With a huge eps the noise is negligible; 1000 clips to 10.
	got, err := ClippedMean(rng, data, 0, 10, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 + 2 + 3 + 4 + 10) / 5
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("clipped mean = %v, want %v", got, want)
	}
}

func TestClippedMeanNoiseScale(t *testing.T) {
	// Empirical std of the release should match sqrt(2)*(hi-lo)/(eps n).
	rng := xrand.New(7)
	data := make([]float64, 100)
	const eps = 0.5
	scale := 1.0 / (eps * 100) // hi-lo = 1
	var sum, sumsq float64
	const trials = 50000
	for i := 0; i < trials; i++ {
		v, err := ClippedMean(rng, data, 0, 1, eps)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / trials
	std := math.Sqrt(sumsq/trials - mean*mean)
	want := scale * math.Sqrt2
	if math.Abs(std-want)/want > 0.05 {
		t.Errorf("noise std = %v, want ~%v", std, want)
	}
}

func TestClippedMeanErrors(t *testing.T) {
	rng := xrand.New(8)
	if _, err := ClippedMean(rng, nil, 0, 1, 1); !errors.Is(err, ErrEmptyData) {
		t.Error("empty data")
	}
	if _, err := ClippedMean(rng, []float64{1}, 2, 1, 1); !errors.Is(err, ErrEmptyDomain) {
		t.Error("inverted range")
	}
	if _, err := ClippedMean(rng, []float64{1}, 0, 1, 0); err == nil {
		t.Error("bad eps")
	}
}

func TestReportNoisyMaxPicksClearWinner(t *testing.T) {
	rng := xrand.New(9)
	values := []float64{0, 0, 100, 0}
	wins := 0
	for i := 0; i < 200; i++ {
		if ReportNoisyMax(rng, values, 1, 1.0) == 2 {
			wins++
		}
	}
	if wins < 190 {
		t.Errorf("clear winner chosen only %d/200 times", wins)
	}
}

func TestNoisyCount(t *testing.T) {
	rng := xrand.New(10)
	var sum float64
	for i := 0; i < 100000; i++ {
		sum += NoisyCount(rng, 42, 1.0)
	}
	if got := sum / 100000; math.Abs(got-42) > 0.1 {
		t.Errorf("mean noisy count = %v", got)
	}
}
