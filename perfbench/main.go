// Command perfbench is the benchmark of the DP release service. It runs
// one named workload against an in-process serve.Server over loopback
// HTTP from a single process, checks every answer, and prints one JSON
// result line with the end-to-end metrics. With --trace 1 it runs the
// workload again with benchmark-side spans, times the handler without
// HTTP, replays a sample of the requests layer by layer (dpsql, updp,
// dp, store, obs), and reports the per-layer metrics instead; the spans
// are written next to the run record.
//
// The timed window is cut into ten slices; each end-to-end time metric is
// the median of its per-slice values over the slices a hypervisor stole
// little CPU from (window.go), so a host stall in part of a run does not
// decide the run.
//
// metrics.json lists every metric with its unit, and for each per-layer
// metric the end-to-end metric and workloads it should move.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same data and requests")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for run records, span files and data directories")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seed > 0, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := fullConfig(wl, *seed, time.Duration(*seconds*float64(time.Second)), *out)
	res, err := benchmark(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the run record written next to the spans: the result plus
// the machine and run metadata and the failures in words.
type record struct {
	Workload       string   `json:"workload"`
	Seed           uint64   `json:"seed"`
	Seconds        float64  `json:"seconds"`
	Traced         bool     `json:"traced"`
	Machine        machine  `json:"machine"`
	ReleaseSamples int      `json:"release_samples"`
	IngestSamples  int      `json:"ingest_samples"`
	FailedFrac     float64  `json:"failed_frac"`
	CPUStealFrac   float64  `json:"cpu_steal_frac"`
	Slices         int      `json:"window_slices"`
	CleanSlices    int      `json:"clean_slices"`
	Failures       []string `json:"failures,omitempty"`
	SpanFile       string   `json:"span_file,omitempty"`
	result
}

// benchmark runs the workload once and writes its run record (and, when
// traced, its span file) under cfg.dir.
func benchmark(cfg config, traced bool) (result, error) {
	table, err := loadMetricTable()
	if err != nil {
		return result{}, err
	}
	o, err := run(cfg, traced)
	if err != nil {
		return result{}, err
	}
	defs := table.EndToEnd
	if traced {
		defs = table.PerLayer
	}
	metrics, err := report(defs, o.metrics)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	trace := 0
	if traced {
		trace = 1
	}
	base := filepath.Join(cfg.dir, fmt.Sprintf("%s-seed%d-trace%d", cfg.wl.name, cfg.seed, trace))
	rec := record{
		Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Traced: traced,
		Machine:        describeMachine(cfg.dir),
		ReleaseSamples: o.releases, IngestSamples: o.ingests,
		FailedFrac:   float64(o.failed) / float64(max(1, o.attempted)),
		CPUStealFrac: o.steal,
		Slices:       o.slices, CleanSlices: o.cleanSlices,
		result: res,
	}
	for _, e := range o.errs {
		rec.Failures = append(rec.Failures, e.Error())
	}
	if traced {
		rec.SpanFile = base + ".spans.jsonl"
		if err := o.tr.write(rec.SpanFile); err != nil {
			return result{}, err
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return result{}, fmt.Errorf("perfbench: writing run record: %w", err)
	}
	summarize(rec)
	return res, nil
}

// summarize prints the run for a human on standard error.
func summarize(r record) {
	m := r.Machine
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d traced=%v window=%gs | nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s data_fs=%s\n",
		r.Workload, r.Seed, r.Traced, r.Seconds, m.Nproc, m.GOMAXPROCS, m.CPU, m.GoVersion, m.Commit, m.DataFS)
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d failed_frac=%.3g release_samples=%d ingest_samples=%d cpu_steal_frac=%.3f clean_slices=%d/%d\n",
		r.Correct, r.Attempted, r.Failed, r.FailedFrac, r.ReleaseSamples, r.IngestSamples, r.CPUStealFrac, r.CleanSlices, r.Slices)
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "  failure: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}
