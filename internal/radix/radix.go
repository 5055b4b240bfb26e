// Package radix sorts int64 and float64 slices in linear time with
// most-significant-digit radix sorts that allocate nothing. The
// real-domain estimators read their bucket indices in increasing order;
// since Discretize is monotone, they get that order by discretizing
// floats that are already sorted (SortFloats, SortFloatsInto), so a
// cached per-user fold is sorted once per snapshot and no release sorts
// its buckets. Sort serves the integer-domain paths, whose input comes
// in any order: the empirical quantiles sort their clamped data once,
// and the finite-domain quantile sorts a copy of unsorted input. Either
// sort is the one step of its pipeline a comparison sort would make
// superlinear.
package radix

import (
	"math"
	"math/bits"
	"slices"
)

const (
	// minN is the length below which Sort hands the slice to slices.Sort,
	// which is as fast at that size, and SortFloatsInto copies and sorts
	// in place rather than fill 2,048 buckets.
	minN = 1024
	// leafN is the bucket length below which a bucket is finished by
	// insertion sort instead of another radix pass.
	leafN = 32
	// topBits sets the bucket count of SortFloatsInto's out-of-place
	// first pass: 2,048 buckets, whose bounds fit on the stack.
	topBits = 11
)

// Sort sorts xs in increasing order. The result is the one slices.Sort
// gives: sorting is a function of the multiset, so equal keys need no
// stability.
//
// Keys are k = uint64(v) - uint64(min(xs)), which is exact and preserves
// order for every int64 pair. The sort goes most significant digit first,
// one 8-bit digit per pass, starting at the top digit of max(xs) -
// min(xs): two digits for a span below 2^16, eight only for a span of
// 2^56 or more. Each pass moves keys into their buckets in place, so Sort
// allocates nothing; a scratch buffer would have to be kept across calls,
// and a sync.Pool loses it to every garbage collection.
func Sort(xs []int64) {
	if len(xs) < minN {
		slices.Sort(xs)
		return
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if span := uint64(hi) - uint64(lo); span > 0 {
		sortDigit(xs, uint64(lo), 8*uint((bits.Len64(span)-1)/8))
	}
}

// sortDigit sorts xs, whose keys agree on every digit above the one at
// shift, by that digit and then each bucket by the digits below it.
func sortDigit(xs []int64, lo uint64, shift uint) {
	var bound [257]int // bucket d is xs[bound[d]:bound[d+1]]
	for _, v := range xs {
		bound[1+int(byte((uint64(v)-lo)>>shift))]++
	}
	var next [256]int // the first slot of each bucket not yet filled
	for d := range 256 {
		bound[d+1] += bound[d]
		next[d] = bound[d]
	}
	// Cycle leader: the first unfilled slot of bucket d holds a key of
	// some bucket e; swap it into e's next slot and go on with the key
	// displaced from there, until a key of bucket d comes back.
	for d := range 256 {
		for i := next[d]; i < bound[d+1]; i = next[d] {
			v := xs[i]
			for e := byte((uint64(v) - lo) >> shift); int(e) != d; e = byte((uint64(v) - lo) >> shift) {
				j := next[e]
				next[e]++
				xs[j], v = v, xs[j]
			}
			xs[i] = v
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	for d := range 256 {
		b := xs[bound[d]:bound[d+1]]
		if len(b) < leafN {
			insertionSort(b)
		} else {
			sortDigit(b, lo, shift-8)
		}
	}
}

func insertionSort(xs []int64) {
	for i := 1; i < len(xs); i++ {
		v, j := xs[i], i
		for ; j > 0 && xs[j-1] > v; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = v
	}
}

// floatKey maps x to an unsigned key in the order SortFloats sorts by:
// the float order on every non-NaN value (-0 just below +0), with NaN
// given +0's key, since Discretize puts NaN in bucket 0.
func floatKey(x float64) uint64 {
	if x != x {
		return 1 << 63
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keySpan returns the least and the greatest floatKey over xs, which
// must not be empty.
func keySpan(xs []float64) (lo, hi uint64) {
	lo, hi = floatKey(xs[0]), floatKey(xs[0])
	for _, x := range xs[1:] {
		k := floatKey(x)
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
}

// topShift is the shift that makes a digit of width bits the top digit
// of span: the digit holds the span's highest set bit, so its first pass
// splits the keys as widely as that width can.
func topShift(span uint64, width int) uint {
	return uint(max(0, bits.Len64(span)-width))
}

// SortFloats sorts xs in place in increasing float order, with each NaN
// placed among the zeros. Discretize is monotone in x and maps NaN to 0,
// so discretizing the result in order yields bucket indices in
// increasing order at every bucket size. Values that compare equal under
// that order (±0 and NaN, repeated values) may land in any order among
// themselves; their buckets are equal.
//
// It is an in-place most-significant-digit radix sort over floatKey,
// computed as each element is read, that allocates nothing. Unlike
// Sort's, its digits follow the data. Each pass takes the top bits of
// its bucket's own key span, so a bucket whose keys share their high
// bits (values within one binade, say) skips straight to the bits that
// tell them apart. And a pass is only as wide as its bucket is long
// (up to 8 bits, about 4 keys per digit value), so a bucket of a few
// dozen keys is not walked through 256 empty digits.
func SortFloats(xs []float64) {
	if len(xs) < leafN {
		insertionSortFloats(xs)
		return
	}
	lo, hi := keySpan(xs)
	if hi > lo {
		width := min(8, bits.Len(uint(len(xs)))-2)
		sortFloatDigit(xs, lo, topShift(hi-lo, width), width)
	}
}

// SortFloatsInto writes src's values to dst, which must be as long, in
// SortFloats' order; src is left as it was. Its first pass reads src
// and writes each value straight into its bucket in dst, so the copy a
// caller keeps costs no pass of its own, and each bucket is then
// finished in place as SortFloats finishes its own.
//
// The first pass splits by value, not by key bits: 2^topBits buckets of
// equal width between the least and the greatest finite value (NaN
// counted as 0, ±Inf in the end buckets). The value order fixes the
// bucket order, since x ↦ ⌊(x-lo)·scale⌋ is monotone in floating point
// too. Data spread over a few binades, as per-user means are, then
// leaves a handful of values per bucket, where the top bits of their
// keys would put most of them in one or two.
func SortFloatsInto(dst, src []float64) {
	dst = dst[:len(src)]
	inf := math.Inf(1)
	lo, hi := inf, -inf
	for _, x := range src {
		if x < lo && x > -inf {
			lo = x
		}
		if x > hi && x < inf {
			hi = x
		}
	}
	scale := float64(int(1)<<topBits) / (hi - lo)
	if len(src) < minN || !(scale > 0 && scale < inf) {
		// Short, or no finite span to divide: fewer than two distinct
		// finite values, a span past the float range, or one too small
		// to scale.
		copy(dst, src)
		SortFloats(dst)
		return
	}
	const top = 1<<topBits - 1
	digit := func(x float64) int {
		if x != x {
			x = 0
		}
		f := (x - lo) * scale
		if !(f > 0) {
			return 0
		}
		return int(min(f, top))
	}
	var bound [top + 2]int // bucket d is dst[bound[d]:bound[d+1]]
	for _, x := range src {
		bound[1+digit(x)]++
	}
	var next [top + 1]int
	for d := range next {
		bound[d+1] += bound[d]
		next[d] = bound[d]
	}
	for _, x := range src {
		d := digit(x)
		dst[next[d]] = x
		next[d]++
	}
	for d := range next {
		if bound[d+1]-bound[d] > 1 {
			SortFloats(dst[bound[d]:bound[d+1]])
		}
	}
}

// sortFloatDigit sorts xs, whose keys less lo all lie below
// 2^(shift+width), by the width-bit digit at shift, then finishes each
// bucket as SortFloats does.
func sortFloatDigit(xs []float64, lo uint64, shift uint, width int) {
	nd := 1 << width
	digit := func(x float64) int { return int((floatKey(x) - lo) >> shift) }
	var bound [257]int
	for _, x := range xs {
		bound[1+digit(x)]++
	}
	var next [256]int
	for d := range nd {
		bound[d+1] += bound[d]
		next[d] = bound[d]
	}
	for d := range nd {
		for i := next[d]; i < bound[d+1]; i = next[d] {
			x := xs[i]
			for e := digit(x); e != d; e = digit(x) {
				j := next[e]
				next[e]++
				xs[j], x = x, xs[j]
			}
			xs[i] = x
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	for d := range nd {
		SortFloats(xs[bound[d]:bound[d+1]])
	}
}

// insertionSortFloats finishes a short bucket. Without a NaN the float
// order is SortFloats' order up to the two zeros, whose buckets are
// equal, so plain comparisons do; a NaN among them compares by floatKey.
func insertionSortFloats(xs []float64) {
	for _, x := range xs {
		if x != x {
			insertionSortKeys(xs)
			return
		}
	}
	for i := 1; i < len(xs); i++ {
		x, j := xs[i], i
		for ; j > 0 && xs[j-1] > x; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = x
	}
}

func insertionSortKeys(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x, k, j := xs[i], floatKey(xs[i]), i
		for ; j > 0 && floatKey(xs[j-1]) > k; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = x
	}
}
