package dp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// BenchmarkFiniteDomainQuantile releases the median of N(0, 1000²)
// integers over [-2^20, 2^20] at the budget Algorithm 6 gives its final
// quantile (ε/5 of ε = 1). On unsorted input the radix sort of the copy is
// included; sorted input, the form the estimators pass, prices the two
// segment walks alone.
func BenchmarkFiniteDomainQuantile(b *testing.B) {
	for _, order := range []string{"unsorted", "sorted"} {
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s/n=%d", order, n), func(b *testing.B) {
				src := xrand.New(1)
				data := make([]int64, n)
				for i := range data {
					data[i] = int64(math.Round(1000 * src.Gaussian()))
				}
				if order == "sorted" {
					slices.Sort(data)
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
}

// BenchmarkSpend prices one ledger deduction of a tiny pure-ε cost on
// each composition backend, against a budget no run can exhaust: pure
// adds ε, zCDP converts it to ρ = ε²/2, and RDP adds the pure-ε curve at
// every order of its grid.
func BenchmarkSpend(b *testing.B) {
	ledgers := []struct {
		name string
		open func() (Ledger, error)
	}{
		{"pure", func() (Ledger, error) { return NewBasicLedger(1e12) }},
		{"zcdp", func() (Ledger, error) { return NewZCDPLedger(1e12, 1e-6) }},
		{"rdp", func() (Ledger, error) { return NewRDPLedger(1e12, 1e-6, nil) }},
	}
	for _, lg := range ledgers {
		b.Run(lg.name, func(b *testing.B) {
			l, err := lg.open()
			if err != nil {
				b.Fatal(err)
			}
			cost := EpsCost(1e-6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Spend(cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
