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
