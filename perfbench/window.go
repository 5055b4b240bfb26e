package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// The timed window is cut into windowSlices slices of equal length. Each
// end-to-end time metric is the median over the clean slices of the
// slice's value, and the allocation metrics are sums over the clean
// slices, so a host stall in a few slices does not decide a run.
const windowSlices = 10

// stealMax is the share of the machine's CPU time a hypervisor may steal
// during a slice (or a set-up) before it is left out of the metrics.
// Stolen time is time the benchmark could not run whatever the program
// does, so leaving it out hides no regression. When fewer than a quarter
// of the slices are clean, every slice is kept.
const stealMax = 0.05

// mark is the machine's CPU ticks and the process's allocation counters
// at one instant.
type mark struct {
	at             time.Time
	steal, ticks   uint64
	mallocs, bytes uint64
}

func markNow() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, ticks := cpuTicks()
	return mark{at: time.Now(), steal: steal, ticks: ticks, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// stealShare is the share of the machine's CPU time stolen between two
// tick readings.
func stealShare(steal0, ticks0, steal1, ticks1 uint64) float64 {
	return float64(steal1-steal0) / float64(max(1, ticks1-ticks0))
}

// markEvery takes a mark at start+slice, start+2·slice, … (n marks) and
// sends them once the last is taken.
func markEvery(start time.Time, slice time.Duration, n int) <-chan []mark {
	ch := make(chan []mark, 1)
	go func() {
		ms := make([]mark, 0, n)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
			ms = append(ms, markNow())
		}
		ch <- ms
	}()
	return ch
}

// windowSlice is the part of the timed window between two marks and the
// latencies of the releases and row batches that completed in it.
type windowSlice struct {
	from, to mark
	rel, ing []time.Duration
}

func (s windowSlice) steal() float64 {
	return stealShare(s.from.steal, s.from.ticks, s.to.steal, s.to.ticks)
}

// cut splits the window at the marks (the first and last bound it) and
// puts each sample in the slice it completed in.
func cut(marks []mark, rel, ing tally) []windowSlice {
	out := make([]windowSlice, len(marks)-1)
	for i := range out {
		out[i].from, out[i].to = marks[i], marks[i+1]
	}
	inner := marks[1 : len(marks)-1]
	slot := func(t time.Time) int {
		k, _ := slices.BinarySearchFunc(inner, t, func(m mark, t time.Time) int { return m.at.Compare(t) })
		return k
	}
	for i, l := range rel.lats {
		s := &out[slot(rel.ends[i])]
		s.rel = append(s.rel, l)
	}
	for i, l := range ing.lats {
		s := &out[slot(ing.ends[i])]
		s.ing = append(s.ing, l)
	}
	return out
}

// clean returns the slices whose steal share is below stealMax, or all
// of them when fewer than a quarter are.
func clean(all []windowSlice) []windowSlice {
	var kept []windowSlice
	for _, s := range all {
		if s.steal() < stealMax {
			kept = append(kept, s)
		}
	}
	if 4*len(kept) < len(all) {
		return all
	}
	return kept
}

// medianOver is the median of f over the slices, skipping NaN (a slice
// without samples), or NaN when every slice is skipped.
func medianOver(ss []windowSlice, f func(windowSlice) float64) float64 {
	var vs []float64
	for _, s := range ss {
		if v := f(s); !math.IsNaN(v) {
			vs = append(vs, v)
		}
	}
	return medianFloat(vs)
}

// medianFloat is the median of the values, NaN when there are none.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	vs = slices.Clone(vs)
	slices.Sort(vs)
	h := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[h]
	}
	return (vs[h-1] + vs[h]) / 2
}

// windowMetrics derives the end-to-end release, ingest and allocation
// metrics from the clean slices of the window.
func windowMetrics(m map[string]float64, ss []windowSlice) {
	m["release_rps"] = medianOver(ss, func(s windowSlice) float64 {
		return float64(len(s.rel)) / s.to.at.Sub(s.from.at).Seconds()
	})
	m["release_p50_ms"] = medianOver(ss, func(s windowSlice) float64 { return percentile(s.rel, 0.50) })
	m["release_p99_ms"] = medianOver(ss, func(s windowSlice) float64 { return percentile(s.rel, 0.99) })
	m["ingest_p50_ms"] = medianOver(ss, func(s windowSlice) float64 { return percentile(s.ing, 0.50) })
	m["ingest_p99_ms"] = medianOver(ss, func(s windowSlice) float64 { return percentile(s.ing, 0.99) })
	var rel int
	var mallocs, bytes uint64
	for _, s := range ss {
		rel += len(s.rel)
		mallocs += s.to.mallocs - s.from.mallocs
		bytes += s.to.bytes - s.from.bytes
	}
	answered := float64(max(1, rel))
	m["allocs_per_release"] = float64(mallocs) / answered
	m["alloc_kb_per_release"] = float64(bytes) / 1024 / answered
}
