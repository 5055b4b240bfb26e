package repro

// One benchmark per reproduction experiment (E1–E14, internal/harness), each
// timing the exact code path that regenerates that experiment's table, plus
// micro-benchmarks of the DP primitives and an O(n log n) scaling check for
// the paper's efficiency claim (§1: "all our estimators can be implemented
// efficiently in O(n log n) time").
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/internal/empirical"
	"repro/internal/xrand"
)

const benchN = 10000

func intData(n int, gamma int64) []int64 {
	rng := xrand.New(1)
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int64Range(-gamma/2, gamma/2)
	}
	return out
}

func realData(d dist.Distribution, n int) []float64 {
	return dist.SampleN(d, xrand.New(2), n)
}

// ---------- E1–E4: empirical-setting estimators ----------

func BenchmarkE01Radius(b *testing.B) {
	data := intData(benchN, 1<<30)
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := empirical.Radius(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE02Range(b *testing.B) {
	data := intData(benchN, 1<<16)
	for i := range data {
		data[i] += 1 << 35
	}
	rng := xrand.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := empirical.Range(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE03EmpiricalMean(b *testing.B) {
	data := intData(benchN, 1<<10)
	for i := range data {
		data[i] += 1 << 29
	}
	rng := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := empirical.Mean(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE04Quantile(b *testing.B) {
	data := intData(benchN, 1<<20)
	rng := xrand.New(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := empirical.Quantile(rng, data, benchN/2, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E5: Gaussian mean, ours vs baselines ----------

func BenchmarkE05GaussianMeanOurs(b *testing.B) {
	data := realData(dist.NewNormal(1000, 2), benchN)
	rng := xrand.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateMean(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE05GaussianMeanKV18(b *testing.B) {
	data := realData(dist.NewNormal(1000, 2), benchN)
	rng := xrand.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.KV18Mean(rng, data, 1e6, 0.5, 4, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE05GaussianMeanCoinPress(b *testing.B) {
	data := realData(dist.NewNormal(1000, 2), benchN)
	rng := xrand.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.CoinPressMean(rng, data, 1e6, 4, 1.0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE05GaussianMeanBS19(b *testing.B) {
	data := realData(dist.NewNormal(1000, 2), benchN)
	rng := xrand.New(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.BS19TrimmedMean(rng, data, 1e6, 0.5, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E6: heavy-tailed mean ----------

func BenchmarkE06HeavyTailMeanOurs(b *testing.B) {
	data := realData(dist.NewPareto(1, 3), benchN)
	rng := xrand.New(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateMean(rng, data, 0.5, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE06HeavyTailMeanKSU20(b *testing.B) {
	data := realData(dist.NewPareto(1, 3), benchN)
	muK := dist.NewPareto(1, 3).CentralMoment(2)
	rng := xrand.New(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.KSU20Mean(rng, data, 100, 2, muK, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E7: IQR lower bound ----------

func BenchmarkE07IQRLowerBound(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	rng := xrand.New(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IQRLowerBound(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E8: Gaussian variance ----------

func BenchmarkE08GaussianVarianceOurs(b *testing.B) {
	data := realData(dist.NewNormal(0, 3), benchN)
	rng := xrand.New(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateVariance(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE08GaussianVarianceKV18(b *testing.B) {
	data := realData(dist.NewNormal(0, 3), benchN)
	rng := xrand.New(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.KV18Variance(rng, data, 1e-4, 1e4, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE08GaussianVarianceCoinPress(b *testing.B) {
	data := realData(dist.NewNormal(0, 3), benchN)
	rng := xrand.New(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.CoinPressVariance(rng, data, 1e-4, 1e4, 1.0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E9: heavy-tailed variance ----------

func BenchmarkE09HeavyTailVariance(b *testing.B) {
	data := realData(dist.NewPareto(1, 5), benchN)
	rng := xrand.New(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateVariance(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E10: IQR, ours vs DL09 ----------

func BenchmarkE10IQROurs(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	rng := xrand.New(18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateIQR(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10IQRDL09(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	rng := xrand.New(19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.DL09IQR(rng, data, 1.0, 1e-6); err != nil &&
			err != baseline.ErrUnstable {
			b.Fatal(err)
		}
	}
}

// ---------- E11–E13: robustness matrix and ablations ----------

func BenchmarkE11AssumptionMatrixCell(b *testing.B) {
	// The universal estimator on the A3-violated workload (shifted Pareto).
	data := realData(dist.NewAffine(dist.NewPareto(1, 3), 100, 1), benchN)
	rng := xrand.New(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateMean(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12SubsampleAblation(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	rng := xrand.New(21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateMeanWithConfig(rng, data, 0.1, 0.1,
			core.MeanConfig{SubsampleSize: benchN / 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13ClippingAblation(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	rng := xrand.New(22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateMeanWithConfig(rng, data, 0.1, 0.1,
			core.MeanConfig{FullDataRange: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E14: relational DP SUM ----------

func BenchmarkE14RelationalSum(b *testing.B) {
	rng := xrand.New(23)
	db := dpsql.NewDB()
	tbl, err := db.Create("orders", []dpsql.Column{
		{Name: "user_id", Kind: dpsql.KindString},
		{Name: "amount", Kind: dpsql.KindFloat},
	}, "user_id")
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < 2000; u++ {
		for o := 0; o <= u%3; o++ {
			if err := tbl.Insert(dpsql.Str(fmt.Sprintf("u%d", u)),
				dpsql.Float(rng.Pareto(10, 2.5))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(rng, "SELECT SUM(amount) FROM orders", 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E15: sum estimation ----------

func BenchmarkE15SumOurs(b *testing.B) {
	data := intData(benchN, 1<<16)
	for i := range data {
		if data[i] < 0 {
			data[i] = -data[i]
		}
	}
	rng := xrand.New(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := empirical.Sum(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE15SumR2T(b *testing.B) {
	rng := xrand.New(31)
	data := make([]float64, benchN)
	for i := range data {
		data[i] = rng.Pareto(1, 2.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.R2TSum(rng, data, 1<<40, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- multivariate extension (§1.2) ----------

func BenchmarkMeanVector(b *testing.B) {
	rng := xrand.New(32)
	const d = 4
	data := make([][]float64, 2000)
	for i := range data {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Gaussian() * float64(j+1)
		}
		data[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateMeanVector(rng, data, 2.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- primitives ----------

func BenchmarkPrimitiveLaplaceSample(b *testing.B) {
	rng := xrand.New(24)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rng.Laplace(1.0)
	}
	_ = sink
}

func BenchmarkPrimitiveSVT(b *testing.B) {
	rng := xrand.New(25)
	for i := 0; i < b.N; i++ {
		if _, err := dp.SVT(rng, 50, 1.0, func(q int) (float64, bool) {
			return float64(q), true
		}, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrimitiveQuantileEM(b *testing.B) {
	data := intData(benchN, 1<<40)
	rng := xrand.New(26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.FiniteDomainQuantile(rng, data, benchN/2,
			-1<<41, 1<<41, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrimitiveClippedMean(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	rng := xrand.New(27)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.ClippedMean(rng, data, -3, 3, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- O(n log n) scaling (paper §1 efficiency claim) ----------

func BenchmarkScalingEstimateMean(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := realData(dist.NewNormal(0, 1), n)
			rng := xrand.New(uint64(28 + n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EstimateMean(rng, data, 1.0, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScalingEstimateIQR(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := realData(dist.NewNormal(0, 1), n)
			rng := xrand.New(uint64(29 + n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EstimateIQR(rng, data, 1.0, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- E16–E19: extension experiments ----------

func BenchmarkE16MultiQuantileShared(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	ps := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	rng := xrand.New(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateQuantilesProb(rng, data, ps, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE16MultiQuantileIndependent(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	ps := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	rng := xrand.New(31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			tau := int(float64(benchN) * p)
			if _, err := core.EstimateQuantile(rng, data, tau, 1.0/float64(len(ps)), 0.1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE17ScalingVariance(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := realData(dist.NewNormal(0, 1), n)
			rng := xrand.New(uint64(32 + n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EstimateVariance(rng, data, 1.0, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE18QuantileInterval(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	rng := xrand.New(33)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.QuantileInterval(rng, data, 0.5, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18MeanInterval(b *testing.B) {
	data := realData(dist.NewNormal(0, 1), benchN)
	rng := xrand.New(34)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MeanInterval(rng, data, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE19TrimmedMean(b *testing.B) {
	data := realData(dist.NewPareto(1, 2), benchN)
	rng := xrand.New(35)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrimmedMean(rng, data, 0.1, 1.0, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
