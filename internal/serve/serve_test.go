package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/xrand"
)

// mustOpen opens a test server, failing the test if Open fails.
func mustOpen(t *testing.T, opts Options) *Server {
	t.Helper()
	srv, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%+v): %v", opts, err)
	}
	return srv
}

// client is a minimal JSON client for the test server.
type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func newClient(t *testing.T, base string) *client {
	return &client{t: t, base: base, hc: &http.Client{}}
}

// do posts (or gets, when body is nil) and decodes the JSON reply into
// out, returning the status code.
func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decoding status-%d body: %v", method, path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// seedTenant creates a tenant with totalEps and a metrics table holding
// nUsers users with ~N(100, 5) values, 2 rows each.
func seedTenant(t *testing.T, c *client, id string, totalEps float64, nUsers int) {
	t.Helper()
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{ID: id, Epsilon: totalEps}, nil); code != http.StatusCreated {
		t.Fatalf("create tenant: status %d", code)
	}
	code := c.do("POST", "/v1/tenants/"+id+"/tables", CreateTableRequest{
		Name: "metrics",
		Columns: []ColumnSpec{
			{Name: "uid", Kind: "string"},
			{Name: "v", Kind: "float"},
			{Name: "n", Kind: "int"},
			{Name: "grp", Kind: "string"},
		},
		UserColumn: "uid",
	}, nil)
	if code != http.StatusCreated {
		t.Fatalf("create table: status %d", code)
	}
	rng := xrand.New(42)
	rows := make([][]any, 0, 2*nUsers)
	for u := 0; u < nUsers; u++ {
		uid := fmt.Sprintf("u%05d", u)
		grp := "a"
		if u%2 == 1 {
			grp = "b"
		}
		for r := 0; r < 2; r++ {
			rows = append(rows, []any{uid, 100 + 5*rng.Gaussian(), float64(rng.Intn(50)), grp})
		}
	}
	var ins InsertRowsResponse
	if code := c.do("POST", "/v1/tenants/"+id+"/tables/metrics/rows", InsertRowsRequest{Rows: rows}, &ins); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if ins.Inserted != len(rows) {
		t.Fatalf("inserted %d of %d", ins.Inserted, len(rows))
	}
}

func TestEndToEndSingleTenant(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 1, Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 10, 400)

	var est EstimateResponse
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 1,
	}, &est); code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	// ε=1, n=400, σ=5: the release lands near 100 w.h.p.
	if math.Abs(est.Value-100) > 20 {
		t.Errorf("mean release %v, want ~100", est.Value)
	}

	var q QueryResponse
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT AVG(v) FROM metrics GROUP BY grp", Epsilon: 2,
	}, &q); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if len(q.Rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(q.Rows))
	}

	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if math.Abs(st.Spent-3) > 1e-9 {
		t.Errorf("spent %v, want 3", st.Spent)
	}
	if math.Abs(st.Remaining-7) > 1e-9 {
		t.Errorf("remaining %v, want 7", st.Remaining)
	}
}

func TestEstimateStatsAndErrors(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 2, Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 1000, 300)

	for _, stat := range []string{"mean", "variance", "stddev", "iqr", "median"} {
		var est EstimateResponse
		if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: stat, Epsilon: 1,
		}, &est); code != http.StatusOK {
			t.Errorf("%s: status %d", stat, code)
		}
	}
	var est EstimateResponse
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "quantile", P: 0.9, Epsilon: 1,
	}, &est); code != http.StatusOK {
		t.Errorf("quantile: status %d", code)
	}
	// Empirical estimators on the INT column.
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "n", Stat: "empirical_mean", Epsilon: 1,
	}, &est); code != http.StatusOK {
		t.Errorf("empirical_mean: status %d", code)
	}
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "n", Stat: "empirical_quantile", Tau: 150, Epsilon: 1,
	}, &est); code != http.StatusOK {
		t.Errorf("empirical_quantile: status %d", code)
	}

	// Error surface: these must not consume budget.
	var before, after TenantStatus
	c.do("GET", "/v1/tenants/acme", nil, &before)
	cases := []struct {
		req  EstimateRequest
		code int
	}{
		{EstimateRequest{Table: "nope", Column: "v", Stat: "mean", Epsilon: 1}, http.StatusNotFound},
		{EstimateRequest{Table: "metrics", Column: "nope", Stat: "mean", Epsilon: 1}, http.StatusNotFound},
		{EstimateRequest{Table: "metrics", Column: "v", Stat: "mode", Epsilon: 1}, http.StatusBadRequest},
		{EstimateRequest{Table: "metrics", Column: "v", Stat: "quantile", P: 1.5, Epsilon: 1}, http.StatusBadRequest},
		{EstimateRequest{Table: "metrics", Column: "uid", Stat: "mean", Epsilon: 1}, http.StatusBadRequest},
		{EstimateRequest{Table: "metrics", Column: "v", Stat: "empirical_mean", Epsilon: 1}, http.StatusBadRequest},
		{EstimateRequest{Table: "metrics", Column: "v", Stat: "mean", Epsilon: -1}, http.StatusBadRequest},
	}
	for i, tc := range cases {
		if code := c.do("POST", "/v1/tenants/acme/estimate", tc.req, nil); code != tc.code {
			t.Errorf("case %d: status %d, want %d", i, code, tc.code)
		}
	}
	c.do("GET", "/v1/tenants/acme", nil, &after)
	if after.Spent != before.Spent {
		t.Errorf("failed validations consumed budget: %v -> %v", before.Spent, after.Spent)
	}
}

// The acceptance scenario: 48 concurrent clients, mixed estimator and SQL
// traffic across two tenants, with exact per-tenant budget enforcement.
// Run under -race.
func TestConcurrentMixedWorkloadBudgetEnforcement(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 3, Workers: 8, QueueDepth: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)

	// Each tenant receives clients/2 = 24 unit-ε releases; acme may afford
	// exactly 15 of its 24, globex has room for every one of its 24.
	const (
		clients      = 48
		acmeAllowed  = 15
		globexBudget = 1000.0
	)
	seedTenant(t, c, "acme", acmeAllowed, 300)
	seedTenant(t, c, "globex", globexBudget, 300)

	type outcome struct {
		ok, refused, other int
	}
	var mu sync.Mutex
	got := map[string]*outcome{"acme": {}, "globex": {}}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := newClient(t, ts.URL)
			tenant := "acme"
			if i%2 == 1 {
				tenant = "globex"
			}
			// Every request is distinct (per-client WHERE bound / quantile
			// rank) so none is a free cache replay: the test measures the
			// ledger, not the response cache.
			var code int
			if i%4 < 2 { // half SQL, half direct estimator calls
				code = cl.do("POST", "/v1/tenants/"+tenant+"/query", QueryRequest{
					SQL: fmt.Sprintf("SELECT AVG(v) FROM metrics WHERE v < %d", 10000+i), Epsilon: 1,
				}, nil)
			} else {
				code = cl.do("POST", "/v1/tenants/"+tenant+"/estimate", EstimateRequest{
					Table: "metrics", Column: "v", Stat: "quantile",
					P: float64(i+1) / (clients + 2), Epsilon: 1,
				}, nil)
			}
			mu.Lock()
			defer mu.Unlock()
			switch code {
			case http.StatusOK:
				got[tenant].ok++
			case http.StatusTooManyRequests:
				got[tenant].refused++
			default:
				got[tenant].other++
			}
		}(i)
	}
	wg.Wait()

	// acme: exactly acmeAllowed succeed, the rest are budget-refused.
	if got["acme"].ok != acmeAllowed || got["acme"].refused != clients/2-acmeAllowed {
		t.Errorf("acme: ok=%d refused=%d other=%d, want ok=%d refused=%d",
			got["acme"].ok, got["acme"].refused, got["acme"].other,
			acmeAllowed, clients/2-acmeAllowed)
	}
	// globex: everything fits.
	if got["globex"].ok != clients/2 || got["globex"].refused != 0 {
		t.Errorf("globex: ok=%d refused=%d other=%d, want all %d ok",
			got["globex"].ok, got["globex"].refused, got["globex"].other, clients/2)
	}

	// The ledgers agree with the outcomes exactly.
	var acme, globex TenantStatus
	c.do("GET", "/v1/tenants/acme", nil, &acme)
	c.do("GET", "/v1/tenants/globex", nil, &globex)
	if math.Abs(acme.Spent-acmeAllowed) > 1e-9 || acme.Remaining > 1e-9 {
		t.Errorf("acme ledger: spent=%v remaining=%v", acme.Spent, acme.Remaining)
	}
	if math.Abs(globex.Spent-float64(clients/2)) > 1e-9 {
		t.Errorf("globex ledger: spent=%v", globex.Spent)
	}
}

// Ingestion racing queries through the full HTTP stack. Run under -race.
func TestIngestWhileQuerying(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 1e6, 200)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := newClient(t, ts.URL)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				uid := fmt.Sprintf("new-%d-%d", w, i)
				rows := [][]any{{uid, 101.5, 3.0, "a"}}
				if code := cl.do("POST", "/v1/tenants/acme/tables/metrics/rows",
					InsertRowsRequest{Rows: rows}, nil); code != http.StatusOK {
					t.Errorf("insert: status %d", code)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
			SQL: "SELECT MEDIAN(v) FROM metrics", Epsilon: 1,
		}, nil); code != http.StatusOK {
			t.Errorf("query %d: status %d", i, code)
		}
	}
	close(stop)
	wg.Wait()
}

// Tenants are isolated: a release against one tenant must not move
// another's ledger, and tenant ids must not collide.
func TestTenantIsolation(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 5})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "a", 10, 100)
	seedTenant(t, c, "b", 10, 100)

	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{ID: "a", Epsilon: 5}, nil); code != http.StatusConflict {
		t.Errorf("duplicate tenant: status %d, want 409", code)
	}
	if code := c.do("POST", "/v1/tenants/a/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 2,
	}, nil); code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	var a, b TenantStatus
	c.do("GET", "/v1/tenants/a", nil, &a)
	c.do("GET", "/v1/tenants/b", nil, &b)
	if a.Spent != 2 || b.Spent != 0 {
		t.Errorf("isolation broken: a.spent=%v b.spent=%v", a.Spent, b.Spent)
	}
	if code := c.do("GET", "/v1/tenants/missing", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing tenant: status %d", code)
	}
}

// A load-shed release (full queue → 503 overloaded) must not be charged
// or audited, on every release endpoint: the spend happens on the
// worker, after the request is accepted. The shed response still names
// its release.
func TestShedReleaseCostsNoBudget(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"query", `{"sql":"SELECT AVG(v) FROM metrics","epsilon":1}`},
		{"estimate", `{"table":"metrics","column":"v","stat":"mean","epsilon":1}`},
		{"histogram", `{"table":"metrics","group_by":"grp","epsilon":1}`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			srv := mustOpen(t, Options{Seed: 7, Workers: 1, QueueDepth: 1})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			c := newClient(t, ts.URL)
			seedTenant(t, c, "acme", 10, 100)
			tn, _ := srv.tenantByID("acme")

			// Occupy the single worker, then fill the depth-1 queue, and only
			// send the probe once the queue is verifiably full — otherwise it
			// would be accepted and block instead of shedding.
			block := make(chan struct{})
			started := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				srv.pool.do(func() { close(started); <-block })
			}()
			<-started
			go func() {
				defer wg.Done()
				srv.pool.do(func() {})
			}()
			for i := 0; len(srv.pool.jobs) < cap(srv.pool.jobs); i++ {
				if i > 1000 {
					t.Fatal("queue never filled")
				}
				time.Sleep(time.Millisecond)
			}

			spentBefore := tn.led.Spent()
			resp, err := http.Post(ts.URL+"/v1/tenants/acme/"+tc.path, "application/json", strings.NewReader(tc.body))
			close(block)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || e.Code != "overloaded" {
				t.Fatalf("want 503 overloaded, got %d %+v", resp.StatusCode, e)
			}
			if resp.Header.Get("X-Release-Id") == "" {
				t.Error("shed response carries no X-Release-Id")
			}
			if spent := tn.led.Spent(); spent != spentBefore {
				t.Errorf("shed request was charged: spent %v -> %v", spentBefore, spent)
			}
			if n := tn.audit.Len(); n != 0 {
				t.Errorf("shed request left %d audit records, want 0", n)
			}
		})
	}
}

// The /v1/stats counters add up across tenants.
func TestServerStats(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 6})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "a", 100, 100)

	for i := 0; i < 3; i++ {
		c.do("POST", "/v1/tenants/a/query", QueryRequest{SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 0.1}, nil)
	}
	c.do("POST", "/v1/tenants/a/estimate", EstimateRequest{Table: "metrics", Column: "v", Stat: "mean", Epsilon: 0.5}, nil)

	var st ServerStats
	if code := c.do("GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Tenants != 1 || st.Queries != 3 || st.Estimates != 1 {
		t.Errorf("stats = %+v", st)
	}
	if code := c.do("GET", "/v1/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz: status %d", code)
	}
}
