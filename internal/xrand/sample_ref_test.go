package xrand

import (
	"math"
	"slices"
	"testing"
)

// refSampleIndices is the map-only partial Fisher–Yates walk, kept as the
// reference for SampleIndices' dense walk. The body is unchanged from the
// implementation it replaced.
func refSampleIndices(r *RNG, n, m int) []int {
	if m < 0 || m > n {
		panic("xrand: SampleIndices with m out of range")
	}
	moved := make(map[int]int, m)
	out := make([]int, m)
	for i := 0; i < m; i++ {
		j := i + r.Intn(n-i)
		vi, ok := moved[i]
		if !ok {
			vi = i
		}
		vj, ok := moved[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		moved[j] = vi
	}
	return out
}

// Both walks must return the same indices and leave the generator in the
// same state, for every m from 0 to n.
func TestSampleIndicesMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 17, 100, 1000, 4096} {
		ms := []int{0, 1, n / 8, n/4 - 1, n / 4, n/4 + 1, n / 2, n - 1, n}
		for _, m := range ms {
			if m < 0 || m > n {
				continue
			}
			for seed := uint64(1); seed <= 5; seed++ {
				r1, r2 := New(seed), New(seed)
				got, want := r1.SampleIndices(n, m), refSampleIndices(r2, n, m)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d m=%d seed=%d: got %v, reference %v", n, m, seed, got, want)
				}
				if a, b := r1.Uint64(), r2.Uint64(); a != b {
					t.Fatalf("n=%d m=%d seed=%d: generator diverged", n, m, seed)
				}
			}
		}
	}
}

// SkipGumbel must consume exactly what Gumbel consumes, including
// Float64Open's rejection of a zero draw.
func TestSkipGumbelConsumesLikeGumbel(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r1, r2 := New(seed), New(seed)
		r1.Gumbel()
		r2.SkipGumbel()
		if a, b := r1.Uint64(), r2.Uint64(); a != b {
			t.Fatalf("seed %d: streams diverged", seed)
		}
	}
	// s[1] = 0 makes the first output 0, which Float64Open rejects.
	r1 := &RNG{s: [4]uint64{1, 0, 2, 3}}
	r2 := &RNG{s: r1.s}
	if probe := (&RNG{s: r1.s}).Uint64(); probe>>11 != 0 {
		t.Fatalf("state does not produce a rejected draw: %d", probe)
	}
	r1.Gumbel()
	r2.SkipGumbel()
	if r1.s != r2.s {
		t.Fatal("SkipGumbel and Gumbel consumed different outputs around a rejected draw")
	}
}

// GumbelMin and GumbelMax must bracket every value Gumbel can return and
// stay within 1e-3 of the true extremes. Gumbel is -log(-log u) for u on
// Float64Open's grid k·2^-53, k ∈ [1, 2^53-1]; both ends of the grid are
// checked, with a stretch of neighbours in case math.Log is not monotone
// at the last ulp.
func TestGumbelSpanBracketsGrid(t *testing.T) {
	g := func(k uint64) float64 { return -math.Log(-math.Log(float64(k) * (1.0 / (1 << 53)))) }
	lo, hi := math.Inf(1), math.Inf(-1)
	for k := uint64(1); k <= 4096; k++ {
		lo = min(lo, g(k))
		hi = max(hi, g(1<<53-k))
	}
	if lo < GumbelMin || hi > GumbelMax {
		t.Fatalf("grid extremes [%v, %v] escape [%v, %v]", lo, hi, GumbelMin, GumbelMax)
	}
	if lo-GumbelMin > 1e-3 || GumbelMax-hi > 1e-3 {
		t.Fatalf("[%v, %v] is loose around the grid extremes [%v, %v]", GumbelMin, GumbelMax, lo, hi)
	}
}
