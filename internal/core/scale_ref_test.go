package core

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// scanUpTo is the per-query scan the scale searches ran before scaleCounts,
// kept as its reference.
func scanUpTo(g []float64, x float64) float64 {
	c := 0
	for _, v := range g {
		if v <= x {
			c++
		}
	}
	return float64(c)
}

// Every threshold the scale searches can ask, math.Pow(2, k) for k across
// and beyond the float64 exponent range, must count exactly what a scan
// counts.
func TestScaleCountsMatchScan(t *testing.T) {
	edge := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1074 * 3,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), 0.5, 1, math.Nextafter(1, 2),
		math.Nextafter(1, 0), 3, 0x1p1023, math.Nextafter(0x1p1023, 0),
		math.MaxFloat64, math.Inf(1), math.NaN(), 7, 7, 7,
	}
	r := xrand.New(5)
	gauss := make([]float64, 500)
	for i := range gauss {
		gauss[i] = math.Abs(30 * r.Gaussian())
	}
	sets := map[string][]float64{
		"empty":    nil,
		"zeros":    {0, 0, 0},
		"nan-only": {math.NaN(), math.NaN()},
		"inf-only": {math.Inf(1), math.NaN()},
		"edge":     edge,
		"gauss":    gauss,
		"one":      {0x1p-40},
	}
	for name, g := range sets {
		c := newScaleCounts(g)
		for k := -1100; k <= 1100; k++ {
			if got, want := c.upTo(k), scanUpTo(g, math.Pow(2, float64(k))); got != want {
				t.Errorf("%s: upTo(%d) = %v, scan %v", name, k, got, want)
			}
		}
	}
}
