package core

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

func benchGaussian(n int) []float64 {
	src := xrand.New(1)
	data := make([]float64, n)
	for i := range data {
		data[i] = 250 + 30*src.Gaussian()
	}
	return data
}

// BenchmarkEstimateQuantile is the universal median: Algorithm 7's bucket
// search, then Algorithm 6 on the discretized data.
func BenchmarkEstimateQuantile(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := benchGaussian(n)
			rng := xrand.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateQuantile(rng, data, n/2, 1, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIQRLowerBound is Algorithm 7's two scale searches on spread
// data, which stop after a few dozen thresholds, and on constant data,
// whose shrinking search runs to its cap.
func BenchmarkIQRLowerBound(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, shape := range []string{"gauss", "const"} {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				data := benchGaussian(n)
				if shape == "const" {
					for i := range data {
						data[i] = 99.5
					}
				}
				rng := xrand.New(2)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := IQRLowerBound(rng, data, 1, 0.1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEstimateIQR is Algorithm 10: one bucket search and two
// Algorithm 6 quartiles.
func BenchmarkEstimateIQR(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := benchGaussian(n)
			rng := xrand.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateIQR(rng, data, 1, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
