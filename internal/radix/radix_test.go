package radix

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// draw returns n keys base + U[0, span], with the span's extremes planted
// so that max - min is exactly span.
func draw(r *xrand.RNG, n int, base int64, span uint64) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		var k uint64
		if span == math.MaxUint64 {
			k = r.Uint64()
		} else {
			k = r.Uint64n(span + 1)
		}
		xs[i] = int64(uint64(base) + k)
	}
	if n >= 2 {
		xs[r.Intn(n)] = base
		xs[r.Intn(n)] = int64(uint64(base) + span)
	}
	return xs
}

func checkSorted(t *testing.T, name string, xs []int64) {
	t.Helper()
	want := slices.Clone(xs)
	slices.Sort(want)
	got := slices.Clone(xs)
	Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): radix order differs from slices.Sort", name, len(xs))
	}
}

// Sort must agree with slices.Sort on every input: random spans and
// offsets, spans on both sides of each byte boundary (the digit count
// changes there), the int64 extremes, all-equal input and lengths around
// the small-n fallback.
func TestSortMatchesSlicesSort(t *testing.T) {
	r := xrand.New(3)
	ns := []int{0, 1, 2, 3, minN - 2, minN - 1, minN, minN + 1, 1000, 4099}
	var spans []uint64
	for k := 1; k < 8; k++ {
		b := uint64(1) << (8 * k)
		spans = append(spans, b-2, b-1, b, b+1)
	}
	spans = append(spans, 0, 1, 255, 1<<17, math.MaxUint64, math.MaxUint64-1, 1<<63)
	for _, n := range ns {
		for _, span := range spans {
			// The bottom- and top-aligned bases reach the int64 extremes.
			bases := []int64{math.MinInt64, int64(uint64(math.MaxInt64) - span)}
			if span < 1<<62 {
				bases = append(bases, 0, -int64(span/2)-7)
			}
			for _, base := range bases {
				checkSorted(t, fmt.Sprintf("span=%d base=%d", span, base), draw(r, n, base, span))
			}
		}
		for i := 0; i < 20; i++ {
			span := r.Uint64() >> (1 + r.Intn(63))
			base := math.MinInt64 + int64(r.Uint64n(^span))
			checkSorted(t, fmt.Sprintf("random span=%d", span), draw(r, n, base, span))
		}
	}
	for _, n := range ns {
		equal := make([]int64, n)
		for i := range equal {
			equal[i] = -123456789
		}
		checkSorted(t, "all-equal", equal)
		ext := make([]int64, n)
		for i := range ext {
			ext[i] = []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}[r.Intn(7)]
		}
		checkSorted(t, "±2^63", ext)
		desc := make([]int64, n)
		for i := range desc {
			desc[i] = int64(n - i)
		}
		checkSorted(t, "descending", desc)
	}
}

// Sort permutes in place and allocates nothing.
func TestSortAllocatesNothing(t *testing.T) {
	xs := draw(xrand.New(5), 10000, -1<<20, 1<<21)
	work := make([]int64, len(xs))
	if a := testing.AllocsPerRun(20, func() {
		copy(work, xs)
		Sort(work)
	}); a != 0 {
		t.Fatalf("Sort allocated %v times per call", a)
	}
}

// BenchmarkSort prices the radix sort against slices.Sort on a 2^17 span
// (the bucket indices of a quantile release) and on a full 64-bit span
// (eight digits, its worst case).
func BenchmarkSort(b *testing.B) {
	for _, span := range []struct {
		name string
		base int64
		span uint64
	}{{"span=2^17", -1 << 16, 1 << 17}, {"span=2^64", math.MinInt64, math.MaxUint64}} {
		for _, n := range []int{1000, 10000, 100000} {
			xs := draw(xrand.New(1), n, span.base, span.span)
			work := make([]int64, n)
			for _, impl := range []struct {
				name string
				sort func([]int64)
			}{{"radix", Sort}, {"slices", slices.Sort[[]int64]}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", span.name, n, impl.name), func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						copy(work, xs)
						impl.sort(work)
					}
				})
			}
		}
	}
}

// nanAsZero is the value SortFloats orders x by.
func nanAsZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// checkFloatsSorted sorts xs with SortFloatsInto and a copy of xs with
// SortFloats, and fails unless each result is in increasing float order
// with NaN placed as 0, and a permutation of xs, bit for bit (NaN
// payloads and the sign of zero included), and xs is left as it was.
func checkFloatsSorted(t *testing.T, name string, xs []float64) {
	t.Helper()
	orig := slices.Clone(xs)
	into := make([]float64, len(xs))
	SortFloatsInto(into, xs)
	if !slices.EqualFunc(xs, orig, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s (n=%d): SortFloatsInto modified its source", name, len(xs))
	}
	checkFloatsOrder(t, name+"/into", xs, into)
	inPlace := slices.Clone(xs)
	SortFloats(inPlace)
	checkFloatsOrder(t, name+"/in-place", xs, inPlace)
}

func checkFloatsOrder(t *testing.T, name string, xs, got []float64) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if nanAsZero(got[i-1]) > nanAsZero(got[i]) {
			t.Fatalf("%s (n=%d): out of order at %d: %v then %v", name, len(xs), i, got[i-1], got[i])
		}
	}
	bitsOf := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(bitsOf(got), bitsOf(xs)) {
		t.Fatalf("%s (n=%d): result is not a permutation of the input", name, len(xs))
	}
}

// SortFloats must order every input, NaN as 0, and keep its values bit
// for bit: Gaussian data at several scales, heavy ties, ±0, NaNs of both
// signs and several payloads, ±Inf, subnormals and the float extremes,
// at lengths around the small-n fallback.
func TestSortFloatsOrdersByKey(t *testing.T) {
	r := xrand.New(7)
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000001),
		math.Float64frombits(0x7ff0000000000abc), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1}
	for _, n := range []int{0, 1, 2, 3, leafN - 1, leafN, leafN + 1, 100, minN - 1, minN, minN + 1, 4099, 20000} {
		gauss := make([]float64, n)
		ties := make([]float64, n)
		mixed := make([]float64, n)
		clusters := make([]float64, n)
		edged := make([]float64, n)
		for i := range gauss {
			gauss[i] = 250 + 30*r.Gaussian()
			// NaN, ±0 and ±Inf among finite values a finite span apart:
			// the value-split first pass must place each as its key sorts.
			edged[i] = gauss[i]
			if r.Intn(8) == 0 {
				edged[i] = specials[r.Intn(7)]
			}
			ties[i] = float64(r.Intn(5)) - 2
			if r.Intn(4) == 0 {
				mixed[i] = specials[r.Intn(len(specials))]
			} else {
				mixed[i] = math.Ldexp(r.Gaussian(), r.Intn(200)-100)
			}
			// Tight clusters far apart: the first passes split only the
			// clusters, and the digits below must still order each one.
			clusters[i] = float64(r.Intn(3))*1e12 + r.Float64()*1e-3
		}
		if n > 0 {
			clusters[0] = math.Inf(-1)
		}
		checkFloatsSorted(t, "gauss", gauss)
		checkFloatsSorted(t, "ties", ties)
		checkFloatsSorted(t, "specials", mixed)
		checkFloatsSorted(t, "clusters", clusters)
		checkFloatsSorted(t, "gauss+edges", edged)
	}
	if floatKey(math.Copysign(0, -1)) >= floatKey(0) || floatKey(math.NaN()) != floatKey(0) ||
		floatKey(math.Inf(-1)) >= floatKey(-math.MaxFloat64) || floatKey(math.MaxFloat64) >= floatKey(math.Inf(1)) {
		t.Fatal("floatKey misorders the float extremes, -0 or NaN")
	}
}

// SortFloats permutes in place and SortFloatsInto writes its
// destination; neither allocates.
func TestSortFloatsAllocatesNothing(t *testing.T) {
	r := xrand.New(5)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 250 + 30*r.Gaussian()
	}
	work := make([]float64, len(xs))
	if a := testing.AllocsPerRun(20, func() {
		copy(work, xs)
		SortFloats(work)
	}); a != 0 {
		t.Fatalf("SortFloats allocated %v times per call", a)
	}
	if a := testing.AllocsPerRun(20, func() { SortFloatsInto(work, xs) }); a != 0 {
		t.Fatalf("SortFloatsInto allocated %v times per call", a)
	}
}

// BenchmarkSortFloats prices the float radix sorts, in place and into a
// copy, against slices.Sort on the per-user means of a quantile release:
// N(250, 30²) values.
func BenchmarkSortFloats(b *testing.B) {
	for _, n := range []int{1000, 5000, 10000} {
		r := xrand.New(1)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 250 + 30*r.Gaussian()
		}
		work := make([]float64, n)
		for _, impl := range []struct {
			name string
			sort func([]float64)
		}{{"radix", SortFloats}, {"into", func(w []float64) { SortFloatsInto(w, xs) }}, {"slices", slices.Sort[[]float64]}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					copy(work, xs)
					impl.sort(work)
				}
			})
		}
	}
}
