package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// tinyConfig shrinks a workload so a whole run takes about a second.
func tinyConfig(t *testing.T, name string) config {
	wl := workloads[name]
	wl.users = 600
	return config{
		wl: wl, seed: 7, window: 400 * time.Millisecond, dir: t.TempDir(), nproc: 2,
		setups: 2, warmCharged: 30, warmStream: 5, minTail: 0,
		replayN: 6, reps: 5, loops: 100,
	}
}

func TestTinyRunsReportEveryMetric(t *testing.T) {
	table, err := loadMetricTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, name)
			res, err := benchmark(cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := table.EndToEnd
			if traced {
				defs = table.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !finite(v.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", name, traced, d.Name, v, d.Unit)
				}
			}
			if traced {
				checkSpanFile(t, filepath.Join(cfg.dir, name+"-seed7-trace1.spans.jsonl"))
			}
		}
	}
}

// checkSpanFile holds a written span file to the nesting rules: every
// child inside its parent, every self time non-negative, and a replay
// tree reaching the dpsql layer.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		spans []span
		names = map[string]bool{}
	)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			span
			SelfNS int64 `json:"self_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.SelfNS < 0 {
			t.Errorf("span %d (%s) has negative self time %d", s.ID, s.Name, s.SelfNS)
		}
		spans = append(spans, s.span)
		names[s.Name] = true
	}
	if err := checkNesting(spans); err != nil {
		t.Error(err)
	}
	for _, want := range []string{"http.release", "serve.handler", "replay", "dp.spend", "obs.observe", "sweep.store", "store.compact"} {
		if !names[want] {
			t.Errorf("%s: no %s span", path, want)
		}
	}
	if !names["dpsql.exec"] && !names["dpsql.user_means"] && !names["dpsql.num_users"] {
		t.Errorf("%s: the replay never reached dpsql", path)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: covered once
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 25, 3: 30, 4: 5} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
	bad := append(slices.Clone(spans), span{ID: 5, Parent: 4, Name: "late", Start: 18, End: 30})
	if checkNesting(bad) == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
}

func TestChecksRejectPlantedWrongAnswers(t *testing.T) {
	k := checker{groups: 3, users: 1000, rows: 2000}
	est := request{kind: "estimate", body: serve.EstimateRequest{Table: "metrics", Column: "v", Stat: "median", Epsilon: 1}}
	count := request{kind: "estimate", body: serve.EstimateRequest{Table: "metrics", Stat: "count", Epsilon: 1}}
	gauss := request{kind: "estimate", body: serve.EstimateRequest{Table: "metrics", Stat: "count", Rho: 0.5}}
	hist := request{kind: "histogram", body: serve.HistogramRequest{Table: "metrics", GroupBy: "grp", Epsilon: 1}}
	query := request{kind: "query", body: serve.QueryRequest{SQL: "SELECT AVG(v) FROM metrics", GroupBy: "grp", Epsilon: 1}}
	cases := []struct {
		name   string
		r      request
		status int
		body   string
		ok     bool
	}{
		{"estimate", est, 200, `{"value":250,"eps_spent":1}`, true},
		{"cached estimate", est, 200, `{"value":250,"eps_spent":1,"cached":true}`, true},
		{"non-finite value", est, 200, `{"value":1e999,"eps_spent":1}`, false},
		{"truncated body", est, 200, `{"value":`, false},
		{"refused", est, 429, `{"error":"budget"}`, false},
		{"spent mismatch", est, 200, `{"value":250,"eps_spent":2}`, false},
		{"count near truth", count, 200, `{"value":1003.5,"eps_spent":1}`, true},
		{"count off its tail", count, 200, `{"value":1100,"eps_spent":1}`, false},
		{"gaussian count near truth", gauss, 200, `{"value":998,"rho_spent":0.5}`, true},
		{"gaussian count off its tail", gauss, 200, `{"value":1010,"rho_spent":0.5}`, false},
		{"histogram", hist, 200, `{"buckets":[{"group":"g0","count":1},{"group":"g1","count":2},{"group":"g2","count":3}],"eps_spent":1}`, true},
		{"histogram missing a group", hist, 200, `{"buckets":[{"group":"g0","count":1},{"group":"g1","count":2}],"eps_spent":1}`, false},
		{"grouped query", query, 200, `{"rows":[{"group":"g0","values":[1]},{"group":"g1","values":[2]},{"group":"g2","values":[3]}],"eps_spent":1}`, true},
		{"grouped query with an extra group", query, 200, `{"rows":[{"group":"g0","values":[1]},{"group":"g1","values":[2]},{"group":"g2","values":[3]},{"group":"g3","values":[4]}],"eps_spent":1}`, false},
	}
	for _, c := range cases {
		o := k.check(c.r, c.status, []byte(c.body))
		if (o.err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, o.err, c.ok)
		}
	}
	if o := k.check(est, 200, []byte(`{"value":250,"eps_spent":1,"cached":true}`)); o.charged {
		t.Error("a cache replay counted as charged")
	}

	if err := checkSpend(3.5, 3.5, 7, 7); err != nil {
		t.Errorf("matching spend and audit: %v", err)
	}
	if checkSpend(3.5, 3.0, 7, 7) == nil {
		t.Error("a spend mismatch passed")
	}
	if checkSpend(3.5, 3.5, 6, 7) == nil {
		t.Error("an audit total mismatch passed")
	}
	if checkRecovered(5, 5) != nil || checkRecovered(5, 4.9) == nil {
		t.Error("the recovery check does not hold spend to at least the pre-close spend")
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json and metrics.json
// in step: same metrics, units, directions and bounds, same workloads.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		metricTable
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	table, err := loadMetricTable()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bench.EndToEnd, table.EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from metrics.json:\n%v\n%v", bench.EndToEnd, table.EndToEnd)
	}
	if !slices.Equal(bench.PerLayer, table.PerLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from metrics.json")
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark has %v", names, workloadNames)
	}
	for _, d := range table.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || strings.TrimSpace(d.Unit) == "" || math.IsNaN(d.Bound) {
			t.Errorf("end-to-end metric %s has bound %v unit %q", d.Name, d.Bound, d.Unit)
		}
	}
}

// checkNesting verifies every child span lies inside a parent recorded
// before it, for the same request.
func checkNesting(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			}
			if s.Start < p.Start || s.End > p.End || s.Req != p.Req {
				return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
		}
		byID[s.ID] = s
	}
	return nil
}

// TestStolenSlicesAreLeftOut builds a window of four slices, one of which
// a hypervisor mostly stole, and checks the metrics come from the other
// three: each sample lands in the slice it completed in, the stolen
// slice's slow samples and allocations do not count, and a window stolen
// throughout keeps every slice.
func TestStolenSlicesAreLeftOut(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var marks []mark
	for k := 0; k <= 4; k++ {
		steal := uint64(0)
		if k >= 3 { // slice 2, from marks[2] to marks[3], is half stolen
			steal = 100
		}
		marks = append(marks, mark{
			at: t0.Add(time.Duration(k) * time.Second), steal: steal, ticks: uint64(k) * 200,
			mallocs: uint64(k) * 1000, bytes: uint64(k) * 1024 * 1000,
		})
	}
	marks[3].mallocs += 1_000_000 // the stolen slice's allocations
	marks[4].mallocs += 1_000_000
	var rel, ing tally
	for k := 0; k < 4; k++ {
		lat := 2 * time.Millisecond
		if k == 2 {
			lat = 50 * time.Millisecond
		}
		for j := 0; j < 10; j++ {
			end := t0.Add(time.Duration(k)*time.Second + time.Duration(j+1)*50*time.Millisecond)
			rel.lats, rel.ends = append(rel.lats, lat), append(rel.ends, end)
			ing.lats, ing.ends = append(ing.lats, lat/2), append(ing.ends, end)
		}
	}
	all := cut(marks, rel, ing)
	for k, s := range all {
		if len(s.rel) != 10 || len(s.ing) != 10 {
			t.Fatalf("slice %d holds %d releases and %d batches, want 10 each", k, len(s.rel), len(s.ing))
		}
	}
	kept := clean(all)
	if len(kept) != 3 {
		t.Fatalf("kept %d slices, want the 3 unstolen ones", len(kept))
	}
	m := map[string]float64{}
	windowMetrics(m, kept)
	for name, want := range map[string]float64{
		"release_rps": 10, "release_p50_ms": 2, "release_p99_ms": 2, "ingest_p50_ms": 1, "ingest_p99_ms": 1,
		"allocs_per_release": 100, "alloc_kb_per_release": 100,
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	for k := range marks {
		marks[k].steal = marks[k].ticks / 2
	}
	if got := len(clean(cut(marks, rel, ing))); got != 4 {
		t.Errorf("a window stolen throughout kept %d slices, want all 4", got)
	}
}
