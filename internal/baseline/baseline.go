// Package baseline implements the prior private estimators the paper
// compares against in §1.1 and Table 1, plus non-private references. Each
// baseline keeps the assumption profile (A1: mean range, A2: variance
// range, A3: distribution family) and the error *rate* of the original;
// where a baseline substitutes a mechanism (CoinPress uses Laplace noise in
// place of Gaussian), its doc comment says so.
//
//   - KV18Mean / KV18Variance   — histogram localization, A1+A2(+A3)
//   - CoinPressMean / -Variance — KLSU19/BDKU20-style iterative refinement,
//     A1+A2, Laplace noise so the guarantee stays pure DP
//   - KSU20Mean                 — heavy-tailed mean with a given k-th
//     central moment bound, A1+A2
//   - BS19TrimmedMean           — private-quartile trimmed mean, A1+A2
//   - DL09IQR                   — (ε,δ)-DP propose-test-release scale
//     estimator with the α ∝ 1/(ε log n) rate
//   - NonPrivate*               — the empirical estimators of §1
package baseline

import (
	"errors"
	"math"

	"repro/internal/dp"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Errors returned by the baselines.
var (
	// ErrBadParams reports invalid assumption parameters (R, sigma bounds…).
	ErrBadParams = errors.New("baseline: invalid assumption parameters")
	// ErrUnstable reports a propose-test-release test failure (DL09's ⊥).
	ErrUnstable = errors.New("baseline: propose-test-release test failed")
)

// NonPrivateMean is the empirical mean µ(D) (§1).
func NonPrivateMean(data []float64) float64 { return stats.Mean(data) }

// NonPrivateVariance is the empirical variance σ²(D) (§1).
func NonPrivateVariance(data []float64) float64 { return stats.Variance(data) }

// NonPrivateIQR is the empirical IQR X_{3n/4} - X_{n/4} (§1).
func NonPrivateIQR(data []float64) float64 { return stats.IQR(data) }

// KV18Mean is the Karwa–Vadhan-style pure-DP Gaussian mean estimator under
// A1 (|mu| <= R) and A2 (sigma in [sigmaMin, sigmaMax]): a histogram with
// sigmaMax-width bins over [-R, R] localizes the mean via report-noisy-max
// (the 1/ε·log(R/σ) term of its sample complexity), then a clipped mean
// with an O(sigmaMax·sqrt(log n)) radius releases the estimate. Total
// budget: ε/2 + ε/2.
//
// When the assumptions are violated (mu outside [-R, R], or sigma above
// sigmaMax) the estimate degrades arbitrarily — that is Table 1's point.
func KV18Mean(rng *xrand.RNG, data []float64, r, sigmaMin, sigmaMax, eps float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return 0, dp.ErrEmptyData
	}
	if !(r > 0) || !(sigmaMin > 0) || sigmaMax < sigmaMin {
		return 0, ErrBadParams
	}
	n := float64(len(data))
	w := sigmaMax
	nBins := int(math.Ceil(2*r/w)) + 1
	if nBins < 1 {
		nBins = 1
	}
	const maxBins = 1 << 26
	if nBins > maxBins {
		return 0, ErrBadParams // R/sigmaMax too extreme to materialize
	}
	counts := make([]float64, nBins)
	for _, x := range data {
		b := int((stats.Clip(x, -r, r) + r) / w)
		if b >= nBins {
			b = nBins - 1
		}
		counts[b]++
	}
	best := dp.ReportNoisyMax(rng, counts, 1, eps/2)
	center := -r + (float64(best)+0.5)*w

	radius := sigmaMax * (2 + math.Sqrt(2*math.Log(2*n)))
	return dp.ClippedMean(rng, data, center-radius, center+radius, eps/2)
}

// KV18Variance is the Karwa–Vadhan-style pure-DP Gaussian variance
// estimator under A2: pair differences W = (X-X')/√2 ~ N(0, σ²) are
// localized on a log₂ grid spanning [sigmaMin, sigmaMax] via noisy max —
// the 1/ε·log log(σmax/σmin) term of (10) — and the clipped mean of W²
// over [0, O(σ̂²·log n)] is released. Budget: ε/2 + ε/2.
func KV18Variance(rng *xrand.RNG, data []float64, sigmaMin, sigmaMax, eps float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if len(data) < 4 {
		return 0, dp.ErrEmptyData
	}
	if !(sigmaMin > 0) || sigmaMax < sigmaMin {
		return 0, ErrBadParams
	}
	n := float64(len(data))

	perm := rng.Perm(len(data))
	w := make([]float64, 0, len(data)/2)
	for i := 0; i+1 < len(perm); i += 2 {
		w = append(w, (data[perm[i]]-data[perm[i+1]])/math.Sqrt2)
	}

	jLo := int(math.Floor(math.Log2(sigmaMin))) - 1
	jHi := int(math.Ceil(math.Log2(sigmaMax))) + 1
	counts := make([]float64, jHi-jLo+1)
	for _, v := range w {
		a := math.Abs(v)
		if a == 0 {
			continue
		}
		j := int(math.Floor(math.Log2(a)))
		if j < jLo {
			j = jLo
		}
		if j > jHi {
			j = jHi
		}
		counts[j-jLo]++
	}
	best := dp.ReportNoisyMax(rng, counts, 1, eps/2)
	sigmaHat := math.Pow(2, float64(best+jLo)+1)

	hi := sigmaHat * sigmaHat * 2 * math.Log(2*n)
	z := make([]float64, len(w))
	for i, v := range w {
		z[i] = v * v
	}
	return dp.ClippedMean(rng, z, 0, hi, eps/2)
}

// CoinPressMean is the KLSU19/BDKU20-style iterative mean estimator under
// A1+A2, using Laplace noise in place of the original Gaussian noise so the
// guarantee remains pure ε-DP. Each of t steps clips to the current
// confidence interval, releases a noisy mean with budget ε/t, and shrinks
// the interval to sigmaMax·O(√log n) plus the noise tail. Its
// 1/ε·log(R/σmax) behaviour comes from needing t ≈ log(R/σmax) steps.
func CoinPressMean(rng *xrand.RNG, data []float64, r, sigmaMax, eps float64, steps int) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return 0, dp.ErrEmptyData
	}
	if !(r > 0) || !(sigmaMax > 0) {
		return 0, ErrBadParams
	}
	if steps <= 0 {
		steps = int(math.Max(1, math.Ceil(math.Log2(r/sigmaMax))))
		if steps > 30 {
			steps = 30
		}
	}
	n := float64(len(data))
	epsStep := eps / float64(steps)
	const betaStep = 0.01

	center := 0.0
	radius := r + sigmaMax
	var est float64
	for i := 0; i < steps; i++ {
		var err error
		est, err = dp.ClippedMean(rng, data, center-radius, center+radius, epsStep)
		if err != nil {
			return 0, err
		}
		// New radius: sampling spread + clipping slack + Laplace tail.
		tail := dp.LaplaceTail(2*radius/(epsStep*n), betaStep)
		next := sigmaMax*(1+math.Sqrt(2*math.Log(2*n/betaStep))) + tail
		if next >= radius {
			break // no further shrinkage possible at this budget
		}
		center, radius = est, next
	}
	return est, nil
}

// CoinPressVariance is the iterative variance analogue under A2: pair
// squares Z = (X-X')² (E[Z] = 2σ²) with a shrinking upper clip bound.
func CoinPressVariance(rng *xrand.RNG, data []float64, sigmaMin, sigmaMax, eps float64, steps int) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if len(data) < 4 {
		return 0, dp.ErrEmptyData
	}
	if !(sigmaMin > 0) || sigmaMax < sigmaMin {
		return 0, ErrBadParams
	}
	if steps <= 0 {
		steps = int(math.Max(1, math.Ceil(math.Log2(sigmaMax/sigmaMin))))
		if steps > 30 {
			steps = 30
		}
	}
	h := stats.PairSquares(rng, data)
	nP := float64(len(h))
	epsStep := eps / float64(steps)
	const betaStep = 0.01

	upper := 2 * sigmaMax * sigmaMax * math.Log(2*nP/betaStep)
	floor := 2 * sigmaMin * sigmaMin
	var est float64
	for i := 0; i < steps; i++ {
		var err error
		est, err = dp.ClippedMean(rng, h, 0, upper, epsStep)
		if err != nil {
			return 0, err
		}
		tail := dp.LaplaceTail(upper/(epsStep*nP), betaStep)
		next := math.Max((est+tail)*2*math.Log(2*nP/betaStep), floor)
		if next >= upper {
			break
		}
		upper = next
	}
	return est / 2, nil
}

// KSU20Mean is the Kamath–Singhal–Ullman heavy-tailed mean estimator under
// A1 (|mu| <= R) and A2 (k-th central moment bounded by mukBar): a coarse
// histogram over [-R, R] with (mukBar)^{1/k}-width bins localizes the mean,
// then the clipped mean over a ±O((εn·mukBar)^{1/k}) window is released.
// Its error carries mukBar^{1/k}, so a misspecified moment bound inflates
// the estimate — the comparison Theorem 4.9 targets.
func KSU20Mean(rng *xrand.RNG, data []float64, r float64, k int, mukBar, eps float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return 0, dp.ErrEmptyData
	}
	if !(r > 0) || k < 2 || !(mukBar > 0) {
		return 0, ErrBadParams
	}
	n := float64(len(data))
	w := 2 * math.Pow(mukBar, 1/float64(k))
	// Validate the bin count in float64 BEFORE converting: for extreme
	// r/mukBar the float exceeds the int range and the conversion is
	// undefined (it can come out negative and defeat the cap check).
	const maxBins = 1 << 26
	binsF := math.Ceil(2 * r / w)
	if !(binsF >= 1) || binsF > maxBins {
		return 0, ErrBadParams
	}
	nBins := int(binsF) + 1
	counts := make([]float64, nBins)
	for _, x := range data {
		b := int((stats.Clip(x, -r, r) + r) / w)
		if b >= nBins {
			b = nBins - 1
		}
		counts[b]++
	}
	best := dp.ReportNoisyMax(rng, counts, 1, eps/2)
	center := -r + (float64(best)+0.5)*w

	xi := 2 * math.Pow(eps*n*mukBar, 1/float64(k))
	return dp.ClippedMean(rng, data, center-xi-w, center+xi+w, eps/2)
}

// BS19TrimmedMean is the Bun–Steinke-style trimmed mean under A1+A2: the
// quartiles are found privately over the [-R, R] domain discretized at
// sigmaMin (the log(R/σmin) range dependence of (7)), the data are clipped
// to a constant inflation of the interquartile interval, and a noisy mean
// is released. Budget: ε/3 per quartile + ε/3 for the mean.
func BS19TrimmedMean(rng *xrand.RNG, data []float64, r, sigmaMin, eps float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	n := len(data)
	if n == 0 {
		return 0, dp.ErrEmptyData
	}
	if !(r > 0) || !(sigmaMin > 0) {
		return 0, ErrBadParams
	}
	b := sigmaMin
	lim := int64(math.Ceil(r / b))
	scaled := make([]int64, n)
	for i, x := range data {
		scaled[i] = int64(math.Round(stats.Clip(x, -r, r) / b))
	}
	q1i, err := dp.FiniteDomainQuantile(rng, scaled, n/4, -lim, lim, eps/3, 0.05)
	if err != nil {
		return 0, err
	}
	q3i, err := dp.FiniteDomainQuantile(rng, scaled, 3*n/4, -lim, lim, eps/3, 0.05)
	if err != nil {
		return 0, err
	}
	q1, q3 := float64(q1i)*b, float64(q3i)*b
	if q3 < q1 {
		q1, q3 = q3, q1
	}
	spread := (q3 - q1) + b
	return dp.ClippedMean(rng, data, q1-2*spread, q3+2*spread, eps/3)
}

// DL09IQR is the Dwork–Lei propose-test-release scale estimator — the only
// prior universal IQR estimator, and only (ε, δ)-DP. The empirical IQR is
// binned on a log scale with granularity 1/ln(n); the distance to the
// nearest dataset whose bin differs (computed from order-statistic shifts,
// sensitivity 1) is tested against ln(1/δ)/ε with Laplace noise; on pass,
// the noisy bin is released. The release error is ≈ IQR·(1+1/ε)/ln(n) —
// DL09's α ∝ 1/(ε log n) rate, exponentially slower in n than Algorithm 10.
// On fail it returns ErrUnstable (the paper's ⊥).
func DL09IQR(rng *xrand.RNG, data []float64, eps, delta float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if !(delta > 0 && delta < 1) {
		return 0, ErrBadParams
	}
	n := len(data)
	if n < 8 {
		return 0, dp.ErrEmptyData
	}
	s := stats.Sorted(data)
	iqrOf := func(k int) (lo, hi float64) {
		// IQR extremes reachable by changing k records: ranks shift by ±k.
		loIdx := func(i int) float64 { return stats.OrderStat(s, i) }
		q1, q3 := int(math.Ceil(float64(n)/4)), int(math.Ceil(3*float64(n)/4))
		hi = loIdx(q3+k) - loIdx(q1-k)
		lo = loIdx(q3-k) - loIdx(q1+k)
		return lo, hi
	}
	base := stats.IQR(data)
	if !(base > 0) {
		return 0, ErrUnstable
	}
	nu := 1 / math.Log(float64(n))
	bin := math.Floor(math.Log(base) / nu)

	// Distance to instability: smallest k whose reachable IQR range leaves
	// the bin.
	kStar := n / 4
	for k := 1; k <= n/4; k++ {
		lo, hi := iqrOf(k)
		outLo := !(lo > 0) || math.Floor(math.Log(lo)/nu) != bin
		outHi := math.Floor(math.Log(hi)/nu) != bin
		if outLo || outHi {
			kStar = k - 1
			break
		}
	}

	if float64(kStar)+rng.Laplace(1/eps) <= 1+math.Log(1/delta)/eps {
		return 0, ErrUnstable
	}
	release := math.Exp(nu * (bin + 0.5 + rng.Laplace(1/eps)))
	return release, nil
}
