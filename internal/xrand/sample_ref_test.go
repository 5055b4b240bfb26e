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

// Drawing the uniform and applying GumbelOf must give Gumbel's value bit
// for bit and consume exactly what Gumbel consumes, including
// Float64Open's rejection of a zero draw.
func TestGumbelOfMatchesGumbel(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r1, r2 := New(seed), New(seed)
		for i := 0; i < 1000; i++ {
			a, b := r1.Gumbel(), GumbelOf(r2.Float64Open())
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d draw %d: Gumbel %v, GumbelOf %v", seed, i, a, b)
			}
		}
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
	if a, b := r1.Gumbel(), GumbelOf(r2.Float64Open()); a != b || r1.s != r2.s {
		t.Fatal("GumbelOf and Gumbel diverged around a rejected draw")
	}
}

// GumbelMin must bound every value Gumbel can return from below and stay
// within 1e-3 of the true minimum. Gumbel is -log(-log u) for u on
// Float64Open's grid k·2^-53, k ∈ [1, 2^53-1]; the low end of the grid is
// checked, with a stretch of neighbours in case math.Log is not monotone
// at the last ulp.
func TestGumbelSpanBracketsGrid(t *testing.T) {
	lo := math.Inf(1)
	for k := uint64(1); k <= 4096; k++ {
		lo = min(lo, GumbelOf(float64(k)*(1.0/(1<<53))))
	}
	if lo < GumbelMin {
		t.Fatalf("grid minimum %v is below GumbelMin %v", lo, GumbelMin)
	}
	if lo-GumbelMin > 1e-3 {
		t.Fatalf("GumbelMin %v is loose below the grid minimum %v", GumbelMin, lo)
	}
}

// GumbelBound must exceed GumbelOf on Float64Open's whole grid, which is
// checked where the bound is tightest: both grid ends, every boundary
// 1 - 2^-k where the leading-ones count k steps up, and one grid step
// below each. Random draws cover the interior; the bound must also stay
// within 2·log 2 of the truth on the upper half of the grid, or it
// would prune little.
func TestGumbelBoundBracketsGumbelOf(t *testing.T) {
	const step = 1.0 / (1 << 53)
	check := func(u float64) {
		t.Helper()
		g, bound := GumbelOf(u), GumbelBound(u)
		if !(bound > g) {
			t.Fatalf("u = %v: GumbelBound %v <= GumbelOf %v", u, bound, g)
		}
		if u >= 0.5 && bound-g > 2*math.Ln2 {
			t.Fatalf("u = %v: GumbelBound %v is loose over GumbelOf %v", u, bound, g)
		}
	}
	check(step)
	check(1 - step)
	if got, want := GumbelBound(1-step), 54*math.Ln2+1e-9; got != want {
		t.Fatalf("GumbelBound(1 - 2^-53) = %v, want 54·log 2 + 1e-9 = %v", got, want)
	}
	for k := 1; k <= 53; k++ {
		u := 1 - math.Ldexp(1, -k)
		check(u)
		check(u - step)
	}
	r := New(9)
	for i := 0; i < 1_000_000; i++ {
		check(r.Float64Open())
	}
}
