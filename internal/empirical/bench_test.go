package empirical

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// benchInts returns n integers N(250·16, (30·16)²): the bucket indices of
// N(250, 30²) at bucket 1/16.
func benchInts(n int) []int64 {
	src := xrand.New(1)
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(math.Round(16 * (250 + 30*src.Gaussian())))
	}
	return data
}

func BenchmarkRadius(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := benchInts(n)
			rng := xrand.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Radius(rng, data, 1, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuantile is Algorithm 6 end to end on unsorted data: range
// (radius, median, recentred radius) and the final quantile.
func BenchmarkQuantile(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := benchInts(n)
			rng := xrand.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Quantile(rng, data, n/2, 1, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealMean is the real-domain mean end to end (Theorem 3.8):
// the discretized range (radius, median, recentred radius) on reals
// N(250, 30²) at bucket 1/16, then the clipped mean. The range reads a
// sorted copy made once before the timer, as a cached fold's is.
func BenchmarkRealMean(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ints := benchInts(n)
			data := make([]float64, n)
			for i, v := range ints {
				data[i] = float64(v) / 16
			}
			sorted := Sorted(data)
			rng := xrand.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RealMean(rng, make([]int64, n), data, sorted, 1.0/16, 1, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
