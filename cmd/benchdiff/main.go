// Command benchdiff compares two benchmark-smoke artifacts (`go test
// -json -bench -benchmem -count N` output, as CI's bench-smoke job
// records) and prints a markdown summary of per-benchmark medians:
// ns/op, B/op and allocs/op.
//
//	benchdiff -old BENCH_BASELINE.json -new BENCH_1.json
//	benchdiff -old old.json -new new.json -threshold 0.5
//
// Time is a surface, not a gate: a slowdown past -threshold only emits a
// ::warning annotation (single-iteration timings on shared CI hardware
// are too noisy to block on), and only when every fresh run is slower
// than every baseline run by the threshold. At -benchtime=1x the median
// of five runs moves past +25% on unchanged code: between two artifacts
// of one tree on a 2-vCPU Xeon, a median rule flagged 15 and 18 of 104
// benchmarks (each way round), the every-run rule 1 and 0. It mirrors
// the allocation gate's rule below.
// Allocation counts are
// different: a benchmark whose allocs/op was identical across every
// baseline run (at least two) allocates deterministically, so when its
// median allocs/op rises — in every fresh run, not just most — the
// change is real, and benchdiff exits 1 with an ::error annotation.
// Requiring every run keeps the gate quiet on benchmarks that allocate
// deterministically only most of the time: runtime and goroutine
// fan-out allocations shift a count by a few now and then. Between four
// 5-run artifacts of one unchanged tree, a median-only rule fired in 4
// of 12 comparisons and the every-run rule in none. Refresh the baseline
// when a change shifts allocations on purpose:
//
//	go test -json -bench . -benchtime=1x -count 5 -benchmem -cpu 2 -run '^$' ./... > BENCH_BASELINE.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches a full Go benchmark result line, capturing the name
// (GOMAXPROCS suffix stripped so runs from different machines align) and
// the metrics that follow the iteration count.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s-]+)(?:-\d+)?\s+\d+\s+(.*ns/op.*)$`)

// resultOnly matches the result half alone: test2json sometimes ends a
// benchmark's echoed name with a newline and prints its result on a line
// of its own, leaving the name only in the event's Test field.
var resultOnly = regexp.MustCompile(`^\s*\d+\s+(.*ns/op.*)$`)

// metric matches one "value unit" pair of a result line.
var metric = regexp.MustCompile(`([0-9.eE+-]+) (ns/op|B/op|allocs/op)\b`)

// testEvent is the subset of test2json's event schema benchdiff reads.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// stripProcs drops a -N GOMAXPROCS suffix from a benchmark name.
var stripProcs = regexp.MustCompile(`-\d+$`)

// runs holds one benchmark's samples, one per -count run. bytes and
// allocs are empty when the artifact was recorded without -benchmem.
type runs struct {
	ns, bytes, allocs []float64
}

// parseBench extracts every benchmark's samples from a test2json stream
// (or, as a fallback, plain `go test -bench` text output). test2json
// splits a result line into several output events — the padded name,
// then the figures — and with -count the later runs' events carry no
// Test field at all, so fragments are joined per package until a
// newline completes the line.
func parseBench(r io.Reader) (map[string]*runs, error) {
	out := map[string]*runs{}
	partial := map[string]string{} // package -> unterminated output
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		text := sc.Text()
		testName := ""
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err == nil && ev.Action != "" {
			if ev.Action != "output" {
				continue
			}
			text = partial[ev.Package] + ev.Output
			if !strings.HasSuffix(text, "\n") {
				partial[ev.Package] = text
				continue
			}
			delete(partial, ev.Package)
			text = strings.TrimRight(text, "\n")
			testName = ev.Test
		}
		name, rest := "", ""
		if m := benchLine.FindStringSubmatch(text); m != nil {
			name, rest = m[1], m[2]
		} else if m := resultOnly.FindStringSubmatch(text); m != nil && strings.HasPrefix(testName, "Benchmark") {
			name, rest = stripProcs.ReplaceAllString(testName, ""), m[1]
		} else {
			continue
		}
		rs := out[name]
		if rs == nil {
			rs = &runs{}
			out[name] = rs
		}
		for _, m := range metric.FindAllStringSubmatch(rest, -1) {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				continue
			}
			switch m[2] {
			case "ns/op":
				rs.ns = append(rs.ns, v)
			case "B/op":
				rs.bytes = append(rs.bytes, v)
			case "allocs/op":
				rs.allocs = append(rs.allocs, v)
			}
		}
		if len(rs.ns) == 0 {
			delete(out, name)
		}
	}
	return out, sc.Err()
}

func loadBench(path string) (map[string]*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

// median returns the middle sample (the mean of the middle two for an
// even count); ok is false when there are none.
func median(xs []float64) (m float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// deterministic reports whether every sample is the same value, over at
// least two samples — one run cannot show that a count is stable.
func deterministic(xs []float64) bool {
	if len(xs) < 2 {
		return false
	}
	for _, x := range xs[1:] {
		if x != xs[0] {
			return false
		}
	}
	return true
}

func human(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// countCell renders a per-op count's medians (B/op, allocs/op), or "—"
// when either artifact was recorded without -benchmem.
func countCell(base, cur []float64) string {
	b, okB := median(base)
	c, okC := median(cur)
	if !okB || !okC {
		return "—"
	}
	if b == c {
		return strconv.FormatFloat(c, 'f', -1, 64)
	}
	return fmt.Sprintf("%s → %s", strconv.FormatFloat(b, 'f', -1, 64), strconv.FormatFloat(c, 'f', -1, 64))
}

// diffCounts is what writeDiff found.
type diffCounts struct {
	slower int // every run's ns/op past every baseline run's +threshold: warnings
	allocs int // median allocs/op rose on a deterministic benchmark: errors
}

// writeDiff renders the markdown comparison of two parsed artifacts and
// counts the regressions: ns/op increases past threshold (a relative
// increase, e.g. 0.25 = +25%) from every baseline run to every fresh
// run, and allocs/op increases, in every fresh run, on benchmarks whose
// baseline allocs/op never varied. The delta column shows the medians.
// Extracted from main so both rules are testable.
func writeDiff(w io.Writer, oldB, newB map[string]*runs, threshold float64) diffCounts {
	names := make([]string, 0, len(newB))
	for n := range newB {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "### Benchmark diff vs committed baseline (ns/op flagged past ±%.0f%% in every run; allocs/op gated)\n\n", threshold*100)
	fmt.Fprintln(w, "| benchmark | baseline | current | delta | B/op | allocs/op | |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---|")
	var dc diffCounts
	improved, added := 0, 0
	for _, n := range names {
		cur := newB[n]
		curNs, _ := median(cur.ns)
		base, ok := oldB[n]
		if !ok {
			fmt.Fprintf(w, "| %s | — | %s | new | %s | %s | |\n", n, human(curNs), countCell(cur.bytes, cur.bytes), countCell(cur.allocs, cur.allocs))
			added++
			continue
		}
		baseNs, _ := median(base.ns)
		delta := (curNs - baseNs) / baseNs
		var flags []string
		switch {
		case len(cur.ns) == 0 || len(base.ns) == 0:
		case slices.Min(cur.ns) > slices.Max(base.ns)*(1+threshold):
			flags = append(flags, "⚠ slower")
			dc.slower++
		case slices.Max(cur.ns) < slices.Min(base.ns)*(1-threshold):
			flags = append(flags, "✓ faster")
			improved++
		}
		if deterministic(base.allocs) && len(cur.allocs) > 0 && slices.Min(cur.allocs) > base.allocs[0] {
			flags = append(flags, "✗ more allocs")
			dc.allocs++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %+.1f%% | %s | %s | %s |\n", n, human(baseNs), human(curNs), delta*100,
			countCell(base.bytes, cur.bytes), countCell(base.allocs, cur.allocs), strings.Join(flags, " "))
	}
	removed := 0
	for n := range oldB {
		if _, ok := newB[n]; !ok {
			removed++
		}
	}
	fmt.Fprintf(w, "\n%d benchmarks; %d ⚠ slower (> +%.0f%% in every run), %d faster, %d ✗ more allocs, %d new, %d removed. ",
		len(names), dc.slower, threshold*100, improved, dc.allocs, added, removed)
	fmt.Fprintln(w, "Smoke timings are noisy pointers; an allocs/op rise on a benchmark whose baseline count never varied is a verdict.")
	return dc
}

func main() {
	var (
		oldPath   = flag.String("old", "", "baseline artifact (test2json or plain bench output)")
		newPath   = flag.String("new", "", "fresh artifact to compare")
		threshold = flag.Float64("threshold", 0.25, "relative ns/op increase, from every baseline run to every fresh run, flagged as a slowdown (0.25 = +25%)")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: need -old and -new")
		os.Exit(2)
	}
	if *threshold <= 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -threshold must be > 0")
		os.Exit(2)
	}
	oldB, err := loadBench(*oldPath)
	if err != nil {
		// A missing baseline is a note, not a failure.
		fmt.Printf("benchdiff: no usable baseline (%v) — nothing to compare\n", err)
		return
	}
	newB, err := loadBench(*newPath)
	if err != nil {
		fmt.Printf("benchdiff: no usable fresh artifact (%v) — nothing to compare\n", err)
		return
	}
	dc := writeDiff(os.Stdout, oldB, newB, *threshold)
	if dc.slower > 0 {
		// A GitHub workflow-command annotation: the run's summary page
		// surfaces the warning without timings becoming a gate.
		fmt.Fprintf(os.Stderr, "::warning title=benchdiff::%d benchmark(s) slowed more than +%.0f%% (ns/op, in every run) vs the committed baseline\n",
			dc.slower, *threshold*100)
	}
	if dc.allocs > 0 {
		fmt.Fprintf(os.Stderr, "::error title=benchdiff::%d benchmark(s) allocate more per op than the committed baseline, whose counts were identical across its runs\n",
			dc.allocs)
		os.Exit(1)
	}
}
