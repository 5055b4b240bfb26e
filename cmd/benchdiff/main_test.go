package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseBenchTest2JSON(t *testing.T) {
	// Mix of the two shapes test2json emits: name+result merged in one
	// output event, and the split form where the name is echoed in one
	// event and the result line arrives in another (name only in Test).
	in := `{"Action":"start","Package":"repro"}
{"Action":"output","Package":"repro","Test":"BenchmarkMean","Output":"BenchmarkMean-8   \t     100\t  12345.0 ns/op\n"}
{"Action":"output","Package":"repro","Output":"some unrelated output\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkIQR","Output":"BenchmarkIQR \t 1\t 9.87e+06 ns/op\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkSplit","Output":"BenchmarkSplit\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkSplit","Output":"       1\t   3572365 ns/op\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkSplitProcs-4","Output":"       2\t   99 ns/op\n"}
{"Action":"pass","Package":"repro"}
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks: %v", len(got), got)
	}
	for name, want := range map[string]float64{
		"BenchmarkMean":       12345,
		"BenchmarkIQR":        9.87e6,
		"BenchmarkSplit":      3572365,
		"BenchmarkSplitProcs": 99, // suffix stripped
	} {
		if r := got[name]; r == nil || fmt.Sprint(r.ns) != fmt.Sprint([]float64{want}) {
			t.Fatalf("%s = %+v, want ns/op [%v]", name, r, want)
		}
	}
}

func TestParseBenchPlainText(t *testing.T) {
	// Fallback: raw `go test -bench` output (no JSON wrapper), and the
	// GOMAXPROCS suffix must be stripped so artifacts from machines with
	// different core counts align.
	in := "goos: linux\nBenchmarkQuantile-16   \t      50\t  2000 ns/op\t  12 B/op\nPASS\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if r := got["BenchmarkQuantile"]; r == nil || fmt.Sprint(r.ns, r.bytes) != "[2000] [12]" {
		t.Fatalf("got %+v", r)
	}
}

// one builds a single-run sample set with no -benchmem figures.
func one(ns float64) *runs { return &runs{ns: []float64{ns}} }

func TestWriteDiffThreshold(t *testing.T) {
	oldB := map[string]*runs{
		"BenchmarkStable":   one(1000),
		"BenchmarkSlower":   one(1000), // +50% in newB
		"BenchmarkBoundary": one(1000), // exactly +25%: not past the threshold
		"BenchmarkFaster":   one(1000), // -50% in newB
		"BenchmarkRemoved":  one(1000),
		// Five runs each: every fresh run is past every baseline run by
		// more than +25%, so the slowdown is flagged.
		"BenchmarkSlowerRuns": {ns: []float64{900, 1000, 1100, 950, 1050}},
		// Median +50%, but one baseline run is as slow as the fresh
		// ones: the runs overlap and nothing is flagged either way.
		"BenchmarkNoisy": {ns: []float64{1000, 1000, 2000, 900, 1100}},
	}
	newB := map[string]*runs{
		"BenchmarkStable":     one(1010),
		"BenchmarkSlower":     one(1500),
		"BenchmarkBoundary":   one(1250),
		"BenchmarkFaster":     one(500),
		"BenchmarkAdded":      one(42),
		"BenchmarkSlowerRuns": {ns: []float64{1400, 1500, 1600, 1450, 1550}},
		"BenchmarkNoisy":      {ns: []float64{1500, 1400, 1600, 1500, 1550}},
	}
	var buf strings.Builder
	if got := writeDiff(&buf, oldB, newB, 0.25); got != (diffCounts{slower: 2}) {
		t.Fatalf("counts = %+v, want two slowdowns\n%s", got, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "| BenchmarkSlower | 1.00µs | 1.50µs | +50.0% | — | — | ⚠ slower |") {
		t.Fatalf("slowdown row missing:\n%s", out)
	}
	if !strings.Contains(out, "| BenchmarkSlowerRuns | 1.00µs | 1.50µs | +50.0% | — | — | ⚠ slower |") {
		t.Fatalf("every-run slowdown row missing:\n%s", out)
	}
	if !strings.Contains(out, "| BenchmarkNoisy | 1.00µs | 1.50µs | +50.0% | — | — |  |") {
		t.Fatalf("overlapping runs must not be flagged:\n%s", out)
	}
	if strings.Count(out, "⚠ slower |") != 2 {
		t.Fatalf("boundary delta must not be flagged:\n%s", out)
	}
	if !strings.Contains(out, "✓ faster") {
		t.Fatalf("improvement not marked:\n%s", out)
	}
	if !strings.Contains(out, "1 new, 1 removed") {
		t.Fatalf("added/removed counts missing:\n%s", out)
	}

	// A tighter threshold flags the boundary case too.
	buf.Reset()
	if got := writeDiff(&buf, oldB, newB, 0.10); got.slower != 3 {
		t.Fatalf("threshold 0.10: slowdowns = %d, want 3\n%s", got.slower, buf.String())
	}
}

func TestParseBenchMemCount(t *testing.T) {
	// -count 3 -benchmem in the shapes test2json really emits: the first
	// run split into a name fragment and its figures (Test set), a later
	// run whole with no Test field, and one split with no Test field.
	// Every run is one sample, and a custom metric between ns/op and B/op
	// (b.ReportMetric) does not shift the columns.
	in := `{"Action":"output","Package":"p","Test":"BenchmarkDurable","Output":"BenchmarkDurable\n"}
{"Action":"output","Package":"p","Test":"BenchmarkDurable","Output":"BenchmarkDurable-2   \t"}
{"Action":"output","Package":"p","Test":"BenchmarkDurable","Output":"       1\t    416391 ns/op\t         1.000 fsyncs/op\t   77028 B/op\t     101 allocs/op\n"}
{"Action":"output","Package":"p","Output":"BenchmarkDurable-2   \t       1\t    300000 ns/op\t         1.000 fsyncs/op\t   77100 B/op\t     103 allocs/op\n"}
{"Action":"output","Package":"p","Output":"BenchmarkDurable-2   \t"}
{"Action":"output","Package":"q","Output":"unrelated line from another package\n"}
{"Action":"output","Package":"p","Output":"       1\t    500000 ns/op\t         1.000 fsyncs/op\t   77000 B/op\t     101 allocs/op\n"}
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r := got["BenchmarkDurable"]
	if r == nil || len(got) != 1 {
		t.Fatalf("parsed %v", got)
	}
	if fmt.Sprint(r.ns, r.bytes, r.allocs) != "[416391 300000 500000] [77028 77100 77000] [101 103 101]" {
		t.Fatalf("samples %+v", r)
	}
	if m, _ := median(r.ns); m != 416391 {
		t.Fatalf("median ns/op %v", m)
	}
	if m, _ := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even-count median %v, want 2.5", m)
	}
}

func TestWriteDiffAllocGate(t *testing.T) {
	// The gate fires only when allocs/op rose in every fresh run (so the
	// median rose too) AND the baseline's count never varied across at
	// least two runs.
	mk := func(allocs ...float64) *runs {
		return &runs{ns: []float64{100, 100, 100}, allocs: allocs}
	}
	oldB := map[string]*runs{
		"BenchmarkStableRise":   mk(10, 10, 10), // deterministic, rises: gated
		"BenchmarkStableFall":   mk(10, 10, 10), // deterministic, falls: fine
		"BenchmarkStableSame":   mk(10, 10, 10),
		"BenchmarkNoisyRise":    mk(10, 11, 10), // varied baseline: not gated
		"BenchmarkSingleRun":    {ns: []float64{100}, allocs: []float64{10}},
		"BenchmarkNoBenchmem":   {ns: []float64{100, 100}},
		"BenchmarkOutlierOnly":  mk(10, 10, 10), // one high run, median unchanged
		"BenchmarkMostlyHigher": mk(10, 10, 10), // median rises, one run does not
	}
	newB := map[string]*runs{
		"BenchmarkStableRise":   mk(11, 11, 11),
		"BenchmarkStableFall":   mk(9, 9, 9),
		"BenchmarkStableSame":   mk(10, 10, 10),
		"BenchmarkNoisyRise":    mk(12, 12, 12),
		"BenchmarkSingleRun":    {ns: []float64{100}, allocs: []float64{20}},
		"BenchmarkNoBenchmem":   {ns: []float64{100, 100}, allocs: []float64{5, 5}},
		"BenchmarkOutlierOnly":  mk(10, 40, 10),
		"BenchmarkMostlyHigher": mk(11, 10, 11),
	}
	var buf strings.Builder
	got := writeDiff(&buf, oldB, newB, 0.25)
	if got != (diffCounts{allocs: 1}) {
		t.Fatalf("counts = %+v, want exactly one alloc regression\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "| BenchmarkStableRise | 100ns | 100ns | +0.0% | — | 10 → 11 | ✗ more allocs |") {
		t.Fatalf("gated row missing:\n%s", buf.String())
	}
}

func TestHuman(t *testing.T) {
	for _, tc := range []struct {
		ns   float64
		want string
	}{
		{500, "500ns"},
		{2500, "2.50µs"},
		{3.2e6, "3.20ms"},
		{1.5e9, "1.50s"},
	} {
		if got := human(tc.ns); got != tc.want {
			t.Errorf("human(%v) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}
