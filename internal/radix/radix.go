// Package radix sorts int64 slices in linear time with an in-place radix
// sort. The estimators' quantile pipeline sorts its bucket indices once
// per release, and that sort is the one step of the pipeline a comparison
// sort would make superlinear.
package radix

import (
	"math/bits"
	"slices"
)

const (
	// minN is the length below which Sort hands the slice to slices.Sort,
	// which is as fast at that size.
	minN = 1024
	// leafN is the bucket length below which a bucket is finished by
	// insertion sort instead of another pass with a 256-entry table.
	leafN = 32
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
