package dp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// BenchmarkFiniteDomainQuantile releases the median of unsorted
// N(0, 1000²) integers over [-2^20, 2^20] at the budget Algorithm 6 gives
// its final quantile (ε/5 of ε = 1); the sort of the clipped copy is
// included.
func BenchmarkFiniteDomainQuantile(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := xrand.New(1)
			data := make([]int64, n)
			for i := range data {
				data[i] = int64(math.Round(1000 * src.Gaussian()))
			}
			rng := xrand.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FiniteDomainQuantile(rng, data, n/2, -1<<20, 1<<20, 0.2, 0.05); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
