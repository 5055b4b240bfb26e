package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// promNameRE is the Prometheus metric-name grammar. The guard test below
// holds every registered instrument to it so a typo'd name cannot ship
// (a scraper would silently drop the series).
var promNameRE = regexp.MustCompile(`^[a-z_:][a-z0-9_:]*$`)

// promLineRE validates one exposition sample line: name, optional
// {labels}, a space, and a float value (Prometheus floats include +Inf).
var promLineRE = regexp.MustCompile(`^[a-z_:][a-z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[+-]?[0-9].*)$`)

func TestMetricNamesValid(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 1})
	defer srv.Close()
	names := srv.metrics.reg.Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	for _, n := range names {
		if !promNameRE.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, promNameRE)
		}
	}
}

// scrape fetches /metrics raw and parses the samples.
func scrape(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for i, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		if !promLineRE.MatchString(line) {
			t.Fatalf("exposition line %d is not valid Prometheus text: %q", i+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d value: %v", i+1, err)
		}
		samples[line[:sp]] = v
	}
	return samples, string(body)
}

// TestMetricsExposition drives real releases through both paths and
// checks the scrape: valid text format, per-stage histograms, per-tenant
// budget gauges, and counters that agree with what actually happened.
func TestMetricsExposition(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 2, Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 10, 200)

	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 0.5,
	}, nil); code != http.StatusOK {
		t.Fatalf("estimate: %d", code)
	}
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 0.5,
	}, nil); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	// Replay the query verbatim: must be a cache hit, not a second charge.
	var q QueryResponse
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 0.5,
	}, &q); code != http.StatusOK || !q.Cached {
		t.Fatalf("replay: code=%d cached=%v", code, q.Cached)
	}

	samples, body := scrape(t, ts.URL)

	wantExact := map[string]float64{
		`updp_releases_total{path="estimate"}`:        1,
		`updp_releases_total{path="query"}`:           2,
		`updp_cache_hits_total`:                       1,
		`updp_cache_misses_total`:                     2, // the estimate and the first query
		`updp_tenants`:                                1,
		`updp_release_seconds_count{path="estimate"}`: 1,
		`updp_release_seconds_count{path="query"}`:    2,
		`updp_tenant_budget_total{tenant="acme"}`:     10,
		`updp_ingest_rows_total`:                      400,
	}
	for k, want := range wantExact {
		if got, ok := samples[k]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", k, got, ok, want)
		}
	}
	// The budget gauges balance: total = spent + remaining.
	spent := samples[`updp_tenant_budget_spent{tenant="acme"}`]
	remaining := samples[`updp_tenant_budget_remaining{tenant="acme"}`]
	if spent <= 0 || spent+remaining != 10 {
		t.Errorf("budget gauges: spent=%v remaining=%v, want spent>0 and sum=10", spent, remaining)
	}
	// Per-stage histograms saw the stages both paths exercise.
	for _, stage := range []string{"queue_wait", "cache_lookup", "scan", "noise", "ledger_deduct"} {
		k := `updp_release_stage_seconds_count{stage="` + stage + `"}`
		if samples[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, samples[k])
		}
	}
	// Every sample family has HELP and TYPE commentary.
	for _, fam := range []string{"updp_releases_total", "updp_release_stage_seconds", "updp_tenant_budget_spent"} {
		if !strings.Contains(body, "# HELP "+fam+" ") || !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing # HELP / # TYPE", fam)
		}
	}
	// An idle tenant's time-to-exhaustion renders as +Inf in the
	// exposition (valid Prometheus), while TenantStatus omits it.
	if v, ok := samples[`updp_tenant_seconds_to_exhaustion{tenant="acme"}`]; !ok {
		t.Error("updp_tenant_seconds_to_exhaustion gauge missing")
	} else if v <= 0 {
		t.Errorf("seconds_to_exhaustion = %v, want > 0 (finite or +Inf)", v)
	}
}

// TestStatsMetricsParity: /v1/stats and /metrics read the same
// instruments, so their counters are equal on a quiescent server.
func TestStatsMetricsParity(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 3, Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 10, 100)

	for i := 0; i < 3; i++ {
		p := 0.2 + 0.2*float64(i)
		if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: 0.1,
		}, nil); code != http.StatusOK {
			t.Fatalf("estimate %d: %d", i, code)
		}
	}
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT AVG(v) FROM metrics", Epsilon: 0.2,
	}, nil); code != http.StatusOK {
		t.Fatal("query")
	}

	var st ServerStats
	if code := c.do("GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatal("stats")
	}
	samples, _ := scrape(t, ts.URL)
	pairs := []struct {
		stat   int64
		series string
	}{
		{st.Queries, `updp_releases_total{path="query"}`},
		{st.Estimates, `updp_releases_total{path="estimate"}`},
		{st.Refusals, `updp_budget_refusals_total`},
		{st.Shed, `updp_shed_total`},
		{st.CacheHits, `updp_cache_hits_total`},
		{st.CacheMisses, `updp_cache_misses_total`},
		{st.CacheEvictions, `updp_cache_evictions_total`},
	}
	for _, p := range pairs {
		if got := samples[p.series]; got != float64(p.stat) {
			t.Errorf("%s: /metrics=%v /v1/stats=%d", p.series, got, p.stat)
		}
	}
}

// TestReleaseIDHeader: every release response carries X-Release-Id, on
// success, cache replay, and refusal alike.
func TestReleaseIDHeader(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 1, 50)

	post := func(path string, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	seen := map[string]bool{}
	check := func(resp *http.Response, wantCode int) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantCode)
		}
		id := resp.Header.Get("X-Release-Id")
		if id == "" {
			t.Fatal("no X-Release-Id header")
		}
		if seen[id] {
			t.Fatalf("release id %q repeated", id)
		}
		seen[id] = true
	}
	check(post("/v1/tenants/acme/estimate", `{"table":"metrics","column":"v","stat":"mean","epsilon":0.5}`), http.StatusOK)
	check(post("/v1/tenants/acme/query", `{"sql":"SELECT COUNT(*) FROM metrics","epsilon":0.5}`), http.StatusOK)
	check(post("/v1/tenants/acme/query", `{"sql":"SELECT COUNT(*) FROM metrics","epsilon":0.5}`), http.StatusOK) // replay
	check(post("/v1/tenants/acme/estimate", `{"table":"metrics","column":"v","stat":"median","epsilon":0.5}`), http.StatusTooManyRequests)
}

// TestConcurrentScrape races releases, status reads, and /metrics
// scrapes (run with -race): the gauges read live tenant state while
// handlers mutate it.
func TestConcurrentScrape(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 5, Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 1e6, 100)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p := 0.01 + 0.02*float64(g*10+i)
				c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
					Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: 0.01,
				}, nil)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// No t.Fatal off the test goroutine: scrape by hand.
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				var st TenantStatus
				c.do("GET", "/v1/tenants/acme", nil, &st)
			}
		}()
	}
	wg.Wait()
	samples, _ := scrape(t, ts.URL)
	if got := samples[`updp_releases_total{path="estimate"}`]; got != 40 {
		t.Fatalf("concurrent estimates counted %v, want 40", got)
	}
}
