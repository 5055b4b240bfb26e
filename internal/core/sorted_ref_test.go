package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dp"
	"repro/internal/empirical"
	"repro/internal/radix"
	"repro/internal/xrand"
)

// refSortedBuckets is the bucket step the quantile, IQR and interval
// releases ran before they read sorted floats: discretize in input
// order, then radix-sort the indices.
func refSortedBuckets(xs []float64, b float64) []int64 {
	out := empirical.DiscretizeAll(xs, b)
	radix.Sort(out)
	return out
}

// refEstimateQuantile, refEstimateQuantiles, refEstimateIQR and
// refQuantileInterval are the releases as they ran on refSortedBuckets,
// with Algorithm 7's pairing through its own index slice. The bodies are
// unchanged apart from the ref prefix and refSortedBuckets.
func refEstimateQuantile(rng *xrand.RNG, data []float64, tau int, eps, beta float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	n := len(data)
	if n < 4 {
		return 0, ErrTooFewSamples
	}
	iqrLB, err := IQRLowerBound(rng, data, eps/2, beta/2)
	if err != nil {
		return 0, err
	}
	b := iqrLB / float64(n)
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	if math.IsInf(b, 1) {
		return 0, empirical.ErrBadBucket
	}
	q, err := empirical.Quantile(rng, refSortedBuckets(data, b), tau, eps/2, beta/2)
	if err != nil {
		return 0, err
	}
	return float64(q) * b, nil
}

func refEstimateQuantiles(rng *xrand.RNG, data []float64, taus []int, eps, beta float64) ([]float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return nil, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return nil, err
	}
	if len(taus) == 0 {
		return nil, ErrNoQuantiles
	}
	n := len(data)
	if n < 4 {
		return nil, ErrTooFewSamples
	}
	iqrLB, err := IQRLowerBound(rng, data, eps/3, beta/2)
	if err != nil {
		return nil, err
	}
	b := iqrLB / float64(n)
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	if math.IsInf(b, 1) {
		return nil, empirical.ErrBadBucket
	}
	qs, err := empirical.Quantiles(rng, refSortedBuckets(data, b), taus, 2*eps/3, beta/2)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = float64(q) * b
	}
	return out, nil
}

func refEstimateIQR(rng *xrand.RNG, data []float64, eps, beta float64) (float64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	n := len(data)
	if n < 4 {
		return 0, ErrTooFewSamples
	}
	iqrLB, err := IQRLowerBound(rng, data, eps/3, beta/6)
	if err != nil {
		return 0, err
	}
	b := iqrLB / float64(n)
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	if math.IsInf(b, 1) {
		return 0, empirical.ErrBadBucket
	}
	ints := refSortedBuckets(data, b)
	q1, err := empirical.Quantile(rng, ints, n/4, eps/3, beta/6)
	if err != nil {
		return 0, err
	}
	q3, err := empirical.Quantile(rng, ints, (3*n)/4, eps/3, beta/6)
	if err != nil {
		return 0, err
	}
	return float64(q3)*b - float64(q1)*b, nil
}

func refQuantileInterval(rng *xrand.RNG, data []float64, p, eps, beta float64) (QuantileCI, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return QuantileCI{}, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return QuantileCI{}, err
	}
	if !(p > 0 && p < 1) {
		return QuantileCI{}, ErrBadProbability
	}
	n := len(data)
	if n < 4 {
		return QuantileCI{}, ErrTooFewSamples
	}
	nf := float64(n)
	zMin := math.Sqrt(nf*math.Log(2/(beta/5))/2) + dp.QuantileRankSlack(1, eps/4, beta/5)
	if p*nf-zMin < 1 || p*nf+zMin+1 > nf {
		return QuantileCI{}, ErrIntervalInfeasible
	}
	iqrLB, err := IQRLowerBound(rng, data, eps/4, beta/5)
	if err != nil {
		return QuantileCI{}, err
	}
	b := iqrLB / nf
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	ints := refSortedBuckets(data, b)
	lo, hi, err := empirical.Range(rng, ints, eps/4, beta/5)
	if err != nil {
		return QuantileCI{}, err
	}
	domain := float64(uint64(hi)-uint64(lo)) + 1
	zBin := math.Sqrt(nf * math.Log(2/(beta/5)) / 2)
	zMech := dp.QuantileRankSlack(domain, eps/4, beta/5)
	z := zBin + zMech
	if p*nf-z < 1 || p*nf+z+1 > nf {
		return QuantileCI{}, ErrIntervalInfeasible
	}
	rLo := clampRank(int(math.Floor(p*nf-z)), n)
	rHi := clampRank(int(math.Ceil(p*nf+z))+1, n)
	qLo, err := dp.FiniteDomainQuantile(rng, ints, rLo, lo, hi, eps/4, beta/5)
	if err != nil {
		return QuantileCI{}, err
	}
	qHi, err := dp.FiniteDomainQuantile(rng, ints, rHi, lo, hi, eps/4, beta/5)
	if err != nil {
		return QuantileCI{}, err
	}
	ciLo := (float64(qLo) - 1) * b
	ciHi := (float64(qHi) + 1) * b
	if ciHi < ciLo {
		ciLo, ciHi = ciHi, ciLo
	}
	return QuantileCI{Lo: ciLo, Hi: ciHi, P: p}, nil
}

// refEmpiricalMean is EmpiricalMeanSorted as the SQL layer's AVG and SUM
// ran it on refSortedBuckets.
func refEmpiricalMean(rng *xrand.RNG, data []float64, eps, beta float64) (float64, error) {
	b, err := IQRLowerBound(rng, data, eps/4, beta/2)
	if err != nil {
		return 0, err
	}
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	if math.IsInf(b, 1) {
		return 0, empirical.ErrBadBucket
	}
	eps, beta = 3*eps/4, beta/2
	ilo, ihi, err := empirical.Range(rng, refSortedBuckets(data, b), 4*eps/5, beta/2)
	if err != nil {
		return 0, err
	}
	return dp.ClippedMean(rng, data, (float64(ilo)-0.5)*b, (float64(ihi)+0.5)*b, eps/5)
}

// sortedTwinSets returns Gaussian, heavy-tailed (Student-t with 1 degree
// of freedom) and tie-heavy data, and the same with ±0, NaNs of both
// signs, ±Inf and values far past ±2^61·b mixed in. The tie-heavy sets
// make Algorithm 7 find no positive bound, so their bucket is
// math.SmallestNonzeroFloat64 and every nonzero value hits the clamp.
func sortedTwinSets() map[string][]float64 {
	src := xrand.New(41)
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000001),
		math.Inf(1), math.Inf(-1), 1e300, -1e300, -math.SmallestNonzeroFloat64}
	families := map[string]func() float64{
		"gauss":    func() float64 { return 250 + 30*src.Gaussian() },
		"student1": func() float64 { return src.StudentT(1) },
		"ties":     func() float64 { return float64(src.Intn(3)) },
	}
	out := make(map[string][]float64)
	for name, draw := range families {
		for _, n := range []int{4, 50, 2000} {
			plain, edged := make([]float64, n), make([]float64, n)
			for i := range plain {
				plain[i] = draw()
				edged[i] = plain[i]
				if src.Intn(10) == 0 {
					edged[i] = specials[src.Intn(len(specials))]
				}
			}
			out[fmt.Sprintf("%s/n=%d", name, n)] = plain
			out[fmt.Sprintf("%s+edges/n=%d", name, n)] = edged
		}
	}
	out["one-atom"] = slices.Repeat([]float64{7}, 400)
	return out
}

// The quantile, multi-quantile, IQR, interval and empirical-mean
// releases — on unsorted input, which they sort on entry, and given a
// sorted copy — must release what they released on sorted buckets, bit
// for bit, and leave the generator where the reference leaves it.
func TestSortedReleasesMatchReference(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameCI := func(a, b QuantileCI) bool { return same(a.Lo, b.Lo) && same(a.Hi, b.Hi) && a.P == b.P }
	check := func(at string, got, want any, err, werr error) {
		t.Helper()
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, reference %v", at, err, werr)
		}
		ok := false
		switch g := got.(type) {
		case float64:
			ok = same(g, want.(float64))
		case []float64:
			ok = slices.EqualFunc(g, want.([]float64), same)
		case QuantileCI:
			ok = sameCI(g, want.(QuantileCI))
		}
		if !ok {
			t.Fatalf("%s: got %v, reference %v", at, got, want)
		}
	}
	for name, data := range sortedTwinSets() {
		orig := slices.Clone(data)
		sorted := empirical.Sorted(data)
		n := len(data)
		taus := []int{1, (n + 1) / 2, n}
		for seed := uint64(1); seed <= 3; seed++ {
			for _, withSorted := range []bool{false, true} {
				at := fmt.Sprintf("%s seed=%d sorted=%v", name, seed, withSorted)
				r1, r2 := xrand.New(seed), xrand.New(seed)
				for _, tau := range taus {
					var got float64
					var err error
					if withSorted {
						got, err = EstimateQuantileSorted(r1, data, sorted, tau, 1, 0.1)
					} else {
						got, err = EstimateQuantile(r1, data, tau, 1, 0.1)
					}
					want, werr := refEstimateQuantile(r2, data, tau, 1, 0.1)
					check(at+fmt.Sprintf(" EstimateQuantile tau=%d", tau), got, want, err, werr)
				}
				var iqr float64
				var err error
				if withSorted {
					iqr, err = EstimateIQRSorted(r1, data, sorted, 1, 0.1)
				} else {
					iqr, err = EstimateIQR(r1, data, 1, 0.1)
				}
				wiqr, werr := refEstimateIQR(r2, data, 1, 0.1)
				check(at+" EstimateIQR", iqr, wiqr, err, werr)
				if withSorted {
					m, err := EmpiricalMeanSorted(r1, data, sorted, 1, 0.1)
					wm, werr := refEmpiricalMean(r2, data, 1, 0.1)
					check(at+" EmpiricalMeanSorted", m, wm, err, werr)
				} else {
					qs, err := EstimateQuantiles(r1, data, taus, 1, 0.1)
					wqs, werr := refEstimateQuantiles(r2, data, taus, 1, 0.1)
					check(at+" EstimateQuantiles", qs, wqs, err, werr)
					for _, p := range []float64{0.25, 0.5} {
						ci, err := QuantileInterval(r1, data, p, 1, 0.1)
						wci, werr := refQuantileInterval(r2, data, p, 1, 0.1)
						check(at+fmt.Sprintf(" QuantileInterval p=%v", p), ci, wci, err, werr)
					}
					// IQRInterval is two quartile intervals over one
					// sorted copy.
					ci, err := IQRInterval(r1, data, 2, 0.1)
					q1, werr := refQuantileInterval(r2, data, 0.25, 1, 0.05)
					var q3 QuantileCI
					if werr == nil {
						q3, werr = refQuantileInterval(r2, data, 0.75, 1, 0.05)
					}
					if werr == nil {
						check(at+" IQRInterval", ci, QuantileCI{Lo: max(0, q3.Lo-q1.Hi), Hi: max(q3.Hi-q1.Lo, max(0, q3.Lo-q1.Hi)), P: 0.5}, err, nil)
					} else if fmt.Sprint(err) != fmt.Sprint(werr) {
						t.Fatalf("%s IQRInterval: error %v, reference %v", at, err, werr)
					}
				}
				if r1.Uint64() != r2.Uint64() {
					t.Fatalf("%s: generator diverged", at)
				}
			}
		}
		if !slices.EqualFunc(data, orig, func(a, b float64) bool { return same(a, b) }) {
			t.Fatalf("%s: a release modified its input", name)
		}
	}
}
