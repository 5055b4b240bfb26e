package empirical

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dp"
	"repro/internal/radix"
	"repro/internal/xrand"
)

// refSortedBuckets is the bucket step of the real-domain consumers as it
// ran before they read sorted floats: discretize in input order, then
// radix-sort the indices. The body is unchanged apart from the ref
// prefix.
func refSortedBuckets(xs []float64, b float64) []int64 {
	out := DiscretizeAll(xs, b)
	radix.Sort(out)
	return out
}

// refRealQuantileSorted, refRealQuantilesSorted, refRealRangeSorted and
// refRealMeanSorted are the real-domain consumers as they ran on
// refSortedBuckets.
func refRealQuantileSorted(rng *xrand.RNG, data []float64, tau int, b, eps, beta float64) (float64, error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, ErrBadBucket
	}
	q, err := Quantile(rng, refSortedBuckets(data, b), tau, eps, beta)
	if err != nil {
		return 0, err
	}
	return float64(q) * b, nil
}

func refRealQuantilesSorted(rng *xrand.RNG, data []float64, taus []int, b, eps, beta float64) ([]float64, error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return nil, ErrBadBucket
	}
	qs, err := Quantiles(rng, refSortedBuckets(data, b), taus, eps, beta)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = float64(q) * b
	}
	return out, nil
}

func refRealRangeSorted(rng *xrand.RNG, data []float64, b, eps, beta float64) (lo, hi float64, err error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, 0, ErrBadBucket
	}
	ilo, ihi, err := Range(rng, refSortedBuckets(data, b), eps, beta)
	if err != nil {
		return 0, 0, err
	}
	return (float64(ilo) - 0.5) * b, (float64(ihi) + 0.5) * b, nil
}

func refRealMeanSorted(rng *xrand.RNG, data []float64, b, eps, beta float64) (float64, error) {
	if !(b > 0) || math.IsInf(b, 1) {
		return 0, ErrBadBucket
	}
	lo, hi, err := refRealRangeSorted(rng, data, b, 4*eps/5, beta/2)
	if err != nil {
		return 0, err
	}
	return dp.ClippedMean(rng, data, lo, hi, eps/5)
}

// sortedTwinSets returns real datasets for the sorted-float twins:
// Gaussian, heavy-tailed (Student-t with 1 degree of freedom) and
// tie-heavy data, and the same with ±0, NaNs of both signs, ±Inf and
// values far past ±2^61·b mixed in.
func sortedTwinSets() map[string][]float64 {
	src := xrand.New(31)
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000001),
		math.Inf(1), math.Inf(-1), 1e300, -1e300, -math.SmallestNonzeroFloat64}
	families := map[string]func() float64{
		"gauss":    func() float64 { return 250 + 30*src.Gaussian() },
		"student1": func() float64 { return src.StudentT(1) },
		"ties":     func() float64 { return float64(src.Intn(4)) - 1.5 },
	}
	out := make(map[string][]float64)
	for name, draw := range families {
		for _, n := range []int{4, 33, 300, 3000} {
			plain, edged := make([]float64, n), make([]float64, n)
			for i := range plain {
				plain[i] = draw()
				edged[i] = plain[i]
				if src.Intn(8) == 0 {
					edged[i] = specials[src.Intn(len(specials))]
				}
			}
			out[fmt.Sprintf("%s/n=%d", name, n)] = plain
			out[fmt.Sprintf("%s+edges/n=%d", name, n)] = edged
		}
	}
	out["edges-only"] = slices.Clone(specials)
	return out
}

// sortedTwinBuckets are bucket sizes from the smallest positive float,
// which sends every nonzero value to the ±2^61 clamp, to one wider than
// most sets' spread.
var sortedTwinBuckets = []float64{math.SmallestNonzeroFloat64, 1.0 / 64, 1, 40}

// Discretizing Sorted's order must give exactly the buckets the
// reference sorts, at every bucket size: the invariant that lets every
// real-domain consumer skip its sort.
func TestSortedBucketsMatchReference(t *testing.T) {
	for name, data := range sortedTwinSets() {
		sorted := Sorted(data)
		buf := make([]int64, len(data))
		for _, b := range sortedTwinBuckets {
			if got, want := DiscretizeInto(buf, sorted, b), refSortedBuckets(data, b); !slices.Equal(got, want) {
				t.Fatalf("%s b=%v: buckets of the sorted floats differ from the sorted buckets", name, b)
			}
		}
	}
}

// Every real-domain bucket consumer given Sorted's order must release
// what it released on the reference's sorted buckets, bit for bit, and
// leave the generator where the reference leaves it; neither slice it
// reads may change.
func TestSortedConsumersMatchReference(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, data := range sortedTwinSets() {
		orig := slices.Clone(data)
		sorted := Sorted(data)
		origSorted := slices.Clone(sorted)
		n := len(data)
		taus := []int{1, (n + 1) / 2, n, (n + 3) / 4}
		for _, b := range sortedTwinBuckets {
			for seed := uint64(1); seed <= 3; seed++ {
				at := fmt.Sprintf("%s b=%v seed=%d", name, b, seed)
				r1, r2 := xrand.New(seed), xrand.New(seed)
				for _, tau := range taus {
					got, err := RealQuantile(r1, make([]int64, n), sorted, tau, b, 1, 0.1)
					want, werr := refRealQuantileSorted(r2, data, tau, b, 1, 0.1)
					if !same(got, want) || fmt.Sprint(err) != fmt.Sprint(werr) {
						t.Fatalf("%s RealQuantile tau=%d: got (%v, %v), reference (%v, %v)", at, tau, got, err, want, werr)
					}
				}
				gotQs, err := RealQuantiles(r1, make([]int64, n), sorted, taus, b, 1, 0.1)
				wantQs, werr := refRealQuantilesSorted(r2, data, taus, b, 1, 0.1)
				if !slices.EqualFunc(gotQs, wantQs, same) || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s RealQuantiles: got (%v, %v), reference (%v, %v)", at, gotQs, err, wantQs, werr)
				}
				lo, hi, err := RealRange(r1, sorted, b, 1, 0.1)
				wlo, whi, werr := refRealRangeSorted(r2, data, b, 1, 0.1)
				if !same(lo, wlo) || !same(hi, whi) || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s RealRange: got (%v, %v, %v), reference (%v, %v, %v)", at, lo, hi, err, wlo, whi, werr)
				}
				m, err := RealMean(r1, make([]int64, n), data, sorted, b, 1, 0.1)
				wm, werr := refRealMeanSorted(r2, data, b, 1, 0.1)
				if !same(m, wm) || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s RealMean: got (%v, %v), reference (%v, %v)", at, m, err, wm, werr)
				}
				if r1.Uint64() != r2.Uint64() {
					t.Fatalf("%s: generator diverged", at)
				}
			}
		}
		if !slices.EqualFunc(data, orig, same) || !slices.EqualFunc(sorted, origSorted, same) {
			t.Fatalf("%s: a consumer modified its input", name)
		}
	}
}
