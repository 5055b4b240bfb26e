package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// The golden exposition test: exact rendered text for a registry holding
// one of each instrument kind, pinning the Prometheus text format 0.0.4
// details (HELP/TYPE headers, label quoting, cumulative buckets, +Inf,
// _sum/_count, family and child ordering).
func TestRenderGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("updp_requests_total", "Requests handled.")
	c.Add(3)
	g := r.Gauge("updp_queue_depth", "Jobs queued.")
	g.Set(2)
	cv := r.CounterVec("updp_hits_total", "Hits by kind.", "kind")
	cv.With("sql").Add(2)
	cv.With("estimate").Inc()
	h := r.Histogram("updp_latency_seconds", "Latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	want := strings.Join([]string{
		`# HELP updp_hits_total Hits by kind.`,
		`# TYPE updp_hits_total counter`,
		`updp_hits_total{kind="estimate"} 1`,
		`updp_hits_total{kind="sql"} 2`,
		`# HELP updp_latency_seconds Latency.`,
		`# TYPE updp_latency_seconds histogram`,
		`updp_latency_seconds_bucket{le="0.01"} 1`,
		`updp_latency_seconds_bucket{le="0.1"} 2`,
		`updp_latency_seconds_bucket{le="+Inf"} 3`,
		`updp_latency_seconds_sum 5.055`,
		`updp_latency_seconds_count 3`,
		`# HELP updp_queue_depth Jobs queued.`,
		`# TYPE updp_queue_depth gauge`,
		`updp_queue_depth 2`,
		`# HELP updp_requests_total Requests handled.`,
		`# TYPE updp_requests_total counter`,
		`updp_requests_total 3`,
	}, "\n") + "\n"
	if got := r.RenderText(); got != want {
		t.Errorf("rendered exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("updp_stage_seconds", "Stage latency.", []float64{0.5}, "stage")
	hv.With("scan").Observe(0.25)
	hv.With("scan").Observe(0.75)
	out := r.RenderText()
	for _, line := range []string{
		`updp_stage_seconds_bucket{stage="scan",le="0.5"} 1`,
		`updp_stage_seconds_bucket{stage="scan",le="+Inf"} 2`,
		`updp_stage_seconds_sum{stage="scan"} 1`,
		`updp_stage_seconds_count{stage="scan"} 2`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, out)
		}
	}
}

func TestGaugeFuncCollector(t *testing.T) {
	r := NewRegistry()
	vals := map[string]float64{"a": 1.5, "b": math.Inf(1)}
	r.GaugeFunc("updp_budget_remaining", "Remaining budget.", []string{"tenant"}, func(emit EmitGauge) {
		for k, v := range vals {
			emit(v, k)
		}
	})
	out := r.RenderText()
	for _, line := range []string{
		`updp_budget_remaining{tenant="a"} 1.5`,
		`updp_budget_remaining{tenant="b"} +Inf`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, out)
		}
	}
	// Samples must render sorted regardless of map order: "a" before "b".
	if strings.Index(out, `tenant="a"`) > strings.Index(out, `tenant="b"`) {
		t.Errorf("gauge-func samples not sorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("updp_weird_total", "Weird labels.", "name")
	cv.With(`a"b\c` + "\n").Inc()
	want := `updp_weird_total{name="a\"b\\c\n"} 1`
	if out := r.RenderText(); !strings.Contains(out, want+"\n") {
		t.Errorf("escaped label line %q missing in:\n%s", want, out)
	}
}

func TestNameValidation(t *testing.T) {
	for _, ok := range []string{"updp_x_total", "x", "_x", "a:b", "x9"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "9x", "x-y", "X", "updp.total", "a b"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("registering an invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("Bad-Name", "nope")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("updp_dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("updp_dup_total", "second")
}

// Concurrent updates + concurrent renders; run with -race. The final
// totals must be exact (atomic adds lose nothing).
func TestConcurrentUpdatesAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("updp_c_total", "c")
	h := r.HistogramVec("updp_h_seconds", "h", LatencyBuckets(), "stage")
	g := r.Gauge("updp_g", "g")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.With("scan").Observe(float64(i%100) / 1e4)
				if i%64 == 0 {
					_ = r.RenderText()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	if got := h.With("scan").Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	// Cumulative bucket invariant: last bucket count equals total count.
	out := r.RenderText()
	if !strings.Contains(out, `updp_h_seconds_count{stage="scan"} 16000`) {
		t.Errorf("histogram count line missing in:\n%s", out)
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace(NewID())
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	tr.Observe("scan", time.Since(t0))
	tr.Observe("noise", 5*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Stage != "scan" || spans[1].Stage != "noise" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].D <= 0 {
		t.Errorf("scan span duration = %v", spans[0].D)
	}
	if s := tr.String(); !strings.Contains(s, "scan=") || !strings.Contains(s, "noise=5ms") {
		t.Errorf("trace string = %q", s)
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate release id %q", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, "r-") {
			t.Fatalf("id %q lacks the r- prefix", id)
		}
	}
}

func TestExemplarRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("updp_ex_seconds", "exemplar test", []float64{0.01, 0.1})
	h.ObserveExemplar(0.05, "r-abc-1")
	h.Observe(0.002) // plain observation: no exemplar on the 0.01 bucket

	// Default rendering stays plain Prometheus text — no exemplar
	// syntax, so the golden-format consumers are unaffected.
	if out := r.RenderText(); strings.Contains(out, "#") && strings.Contains(out, "release_id") {
		t.Fatalf("exemplars rendered while disabled:\n%s", out)
	}

	r.SetExemplars(true)
	out := r.RenderText()
	if !strings.Contains(out, `le="0.1"} 2 # {release_id="r-abc-1"} 0.05 `) {
		t.Errorf("exemplar line missing or malformed in:\n%s", out)
	}
	if strings.Contains(out, `le="0.01"} 1 #`) {
		t.Errorf("bucket without exemplar grew one:\n%s", out)
	}

	// A later observation in the same bucket replaces the exemplar:
	// "most recent release per bucket".
	h.ObserveExemplar(0.09, "r-abc-2")
	out = r.RenderText()
	if !strings.Contains(out, `# {release_id="r-abc-2"} 0.09 `) {
		t.Errorf("exemplar not replaced by newer observation:\n%s", out)
	}
	if strings.Contains(out, "r-abc-1") {
		t.Errorf("stale exemplar survived:\n%s", out)
	}
}

func TestTraceChildSpans(t *testing.T) {
	tr := NewTrace(NewID())
	// Shard children record before the parent "scan" stage closes, as in
	// the real fan-out.
	tr.ObserveChild("scan_shard", "scan", time.Millisecond,
		Attr{Key: "shard", Value: 3}, Attr{Key: "rows", Value: 12840})
	tr.ObserveChild("scan_shard", "scan", 2*time.Millisecond,
		Attr{Key: "shard", Value: 7}, Attr{Key: "rows", Value: 99})
	tr.Observe("scan", 3*time.Millisecond)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %+v", spans)
	}
	if spans[0].Parent != "scan" || spans[1].Parent != "scan" || spans[2].Parent != "" {
		t.Errorf("parent links wrong: %+v", spans)
	}
	if len(spans[0].Attrs) != 2 || spans[0].Attrs[0].Key != "shard" || spans[0].Attrs[0].Value != 3 {
		t.Errorf("attrs wrong: %+v", spans[0].Attrs)
	}
	for _, s := range spans {
		if s.Start < 0 {
			t.Errorf("negative start offset: %+v", s)
		}
	}
	// The slow-log line renders roots only: no per-shard explosion.
	if s := tr.String(); strings.Contains(s, "scan_shard") {
		t.Errorf("child span leaked into log line: %q", s)
	} else if !strings.Contains(s, "scan=3ms") {
		t.Errorf("root span missing from log line: %q", s)
	}
}

func TestTraceTotalFrozen(t *testing.T) {
	tr := NewTrace(NewID())
	time.Sleep(2 * time.Millisecond)
	tr.Finish()
	frozen := tr.Total()
	if frozen < 2*time.Millisecond {
		t.Fatalf("total %v shorter than the release", frozen)
	}
	time.Sleep(5 * time.Millisecond)
	if again := tr.Total(); again != frozen {
		t.Errorf("Total moved after Finish: %v then %v", frozen, again)
	}
	tr.Finish() // idempotent: second Finish must not move the end
	if again := tr.Total(); again != frozen {
		t.Errorf("second Finish moved the end: %v then %v", frozen, again)
	}
}
