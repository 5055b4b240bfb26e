package empirical

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestSumTracksTrueSum(t *testing.T) {
	rng := xrand.New(1)
	const n = 20000
	data := make([]int64, n)
	var trueSum float64
	for i := range data {
		data[i] = 1000 + rng.Int64Range(-50, 50)
		trueSum += float64(data[i])
	}
	errs := make([]float64, 15)
	for i := range errs {
		s, err := Sum(rng, data, 1.0, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		errs[i] = math.Abs(s-trueSum) / trueSum
	}
	// Median relative error well under 1%.
	med := medianF(errs)
	if med > 0.01 {
		t.Errorf("sum median rel err %v", med)
	}
}

func TestSumErrorScalesWithGammaNotRadius(t *testing.T) {
	// Same width, hugely different radius: error should be comparable
	// (§1.1.1 — the improvement over domain-bounded sum estimation).
	rng := xrand.New(2)
	const n = 10000
	mk := func(center int64) []int64 {
		data := make([]int64, n)
		for i := range data {
			data[i] = center + rng.Int64Range(-100, 100)
		}
		return data
	}
	medErr := func(data []int64) float64 {
		var trueSum float64
		for _, v := range data {
			trueSum += float64(v)
		}
		errs := make([]float64, 15)
		for i := range errs {
			s, err := Sum(rng, data, 1.0, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			errs[i] = math.Abs(s - trueSum)
		}
		return medianF(errs)
	}
	near := medErr(mk(0))
	far := medErr(mk(1 << 40))
	if far > 100*near+1000 {
		t.Errorf("absolute sum error should track γ, not radius: near=%v far=%v", near, far)
	}
}

func medianF(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
