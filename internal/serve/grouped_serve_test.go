package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// provisionGrouped creates a pure tenant with the given budget and a
// grouped table where every user contributes rows to three groups in a
// known first-seen order: user i's rows arrive in groups (i%3, i+1%3,
// i+2%3) — 12 users, 4 first-seen per group (the clamp fixture the dpsql
// tests pin, here driven through the wire).
func provisionGrouped(t *testing.T, c *client, id string, eps float64) {
	t.Helper()
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{ID: id, Epsilon: eps, Shards: 4}, nil); code != http.StatusCreated {
		t.Fatalf("create tenant: %d", code)
	}
	if code := c.do("POST", "/v1/tenants/"+id+"/tables", CreateTableRequest{
		Name:       "events",
		Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}, {Name: "grp", Kind: "string"}},
		UserColumn: "uid",
	}, nil); code != http.StatusCreated {
		t.Fatalf("create table: %d", code)
	}
	groups := []string{"a", "b", "c"}
	var rows [][]any
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 12; i++ {
			rows = append(rows, []any{fmt.Sprintf("u%02d", i), float64(10*i + pass), groups[(i+pass)%3]})
		}
	}
	if code := c.do("POST", "/v1/tenants/"+id+"/tables/events/rows", InsertRowsRequest{Rows: rows}, nil); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}
}

// TestHistogramEndpoint: the histogram release returns one noisy count
// per group (sorted by key, contribution-clamped), charges exactly ONE
// release's ε for the whole grouped answer, appends exactly one audit
// record, and replays byte-identical repeats from the cache for free.
func TestHistogramEndpoint(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 5, Workers: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := newClient(t, ts.URL)
	provisionGrouped(t, c, "acme", 1e7)

	const eps = 1e6 // noise ~1e-6: rounded counts are exact
	var h HistogramResponse
	if code := c.do("POST", "/v1/tenants/acme/histogram", HistogramRequest{
		Table: "events", GroupBy: "grp", Epsilon: eps,
	}, &h); code != http.StatusOK {
		t.Fatalf("histogram: %d", code)
	}
	if h.EpsSpent != eps || h.Cached {
		t.Fatalf("histogram meta: %+v", h)
	}
	if len(h.Buckets) != 3 {
		t.Fatalf("buckets: %+v", h.Buckets)
	}
	// Default bound 1: each of the 12 users counts only in its first-seen
	// group — 4 per group, in sorted key order.
	for i, want := range []string{"a", "b", "c"} {
		if h.Buckets[i].Group != want || math.Round(h.Buckets[i].Count) != 4 {
			t.Fatalf("bucket %d = %+v, want group %q count 4", i, h.Buckets[i], want)
		}
	}

	// Exactly one deduction of the full ε for the grouped release, and
	// exactly one audit record.
	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	if st.Spent != eps {
		t.Fatalf("spend after one grouped release = %v, want exactly %v", st.Spent, eps)
	}
	if st.Histograms != 1 || st.AuditRecords != 1 {
		t.Fatalf("counters: histograms=%d audit=%d, want 1/1", st.Histograms, st.AuditRecords)
	}
	var audit AuditResponse
	if code := c.do("GET", "/v1/tenants/acme/audit", nil, &audit); code != http.StatusOK {
		t.Fatal("audit")
	}
	if audit.Total != 1 || audit.Records[0].Path != "histogram" || audit.Records[0].Cost.Eps != eps {
		t.Fatalf("audit: total=%d records=%+v", audit.Total, audit.Records)
	}

	// Byte-identical repeat: cached, free, still one audit record.
	var h2 HistogramResponse
	if code := c.do("POST", "/v1/tenants/acme/histogram", HistogramRequest{
		Table: "events", GroupBy: "grp", Epsilon: eps,
	}, &h2); code != http.StatusOK {
		t.Fatal("cached histogram")
	}
	if !h2.Cached || math.Float64bits(h2.Buckets[0].Count) != math.Float64bits(h.Buckets[0].Count) {
		t.Fatalf("replay not cached-identical: %+v vs %+v", h2, h)
	}
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	if st.Spent != eps || st.AuditRecords != 1 {
		t.Fatalf("cached replay charged: spent=%v audit=%d", st.Spent, st.AuditRecords)
	}

	// An omitted bound IS the bound 1: the explicit spelling is the same
	// release and replays the cached answer for free.
	var h3 HistogramResponse
	if code := c.do("POST", "/v1/tenants/acme/histogram", HistogramRequest{
		Table: "events", GroupBy: "grp", Epsilon: eps, ContributionBound: 1,
	}, &h3); code != http.StatusOK {
		t.Fatal("explicit-bound histogram")
	}
	if !h3.Cached || math.Float64bits(h3.Buckets[0].Count) != math.Float64bits(h.Buckets[0].Count) {
		t.Fatalf("contribution_bound 1 not replayed from the omitted-bound entry: %+v vs %+v", h3, h)
	}
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	if st.Spent != eps || st.AuditRecords != 1 {
		t.Fatalf("explicit-bound replay charged: spent=%v audit=%d", st.Spent, st.AuditRecords)
	}
}

// TestGroupedQueryAndEstimate: group_by on /query and /estimate flows
// through the same parallel-priced path — full-ε spend per grouped
// release, grouped estimate responses carry Groups, and the malformed
// shapes map to the new error codes.
func TestGroupedQueryAndEstimate(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 6, Workers: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := newClient(t, ts.URL)
	provisionGrouped(t, c, "acme", 100)

	var q QueryResponse
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT AVG(v) FROM events", GroupBy: "grp", Epsilon: 0.5,
	}, &q); code != http.StatusOK {
		t.Fatalf("grouped query: %d", code)
	}
	if len(q.Rows) != 3 || q.Rows[0].Group != "a" || q.EpsSpent != 0.5 {
		t.Fatalf("grouped query result: %+v", q)
	}
	var est EstimateResponse
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "events", Column: "v", Stat: "mean", GroupBy: "grp", Epsilon: 0.5,
	}, &est); code != http.StatusOK {
		t.Fatalf("grouped estimate: %d", code)
	}
	if len(est.Groups) != 3 || est.Groups[2].Group != "c" || est.EpsSpent != 0.5 {
		t.Fatalf("grouped estimate result: %+v", est)
	}
	// The same two releases with the default bound spelled out are cache
	// replays, not new charges.
	var q2 QueryResponse
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT AVG(v) FROM events", GroupBy: "grp", Epsilon: 0.5, ContributionBound: 1,
	}, &q2); code != http.StatusOK || !q2.Cached {
		t.Fatalf("explicit-bound query: code %d, cached %v", code, q2.Cached)
	}
	var est2 EstimateResponse
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "events", Column: "v", Stat: "mean", GroupBy: "grp", Epsilon: 0.5, ContributionBound: 1,
	}, &est2); code != http.StatusOK || !est2.Cached {
		t.Fatalf("explicit-bound estimate: code %d, cached %v", code, est2.Cached)
	}
	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	if st.Spent != 1.0 {
		t.Fatalf("two grouped releases at eps=0.5 spent %v, want exactly 1", st.Spent)
	}
	if st.AuditRecords != 2 {
		t.Fatalf("audit records = %d, want 2 (one per grouped release)", st.AuditRecords)
	}

	// Error surface: each malformed shape refuses before any charge.
	bad := []struct {
		path string
		body any
		code int
		ec   string // the error code, when the row pins one
	}{
		{"/v1/tenants/acme/estimate", EstimateRequest{Table: "events", Column: "v", Stat: "empirical_mean", GroupBy: "grp", Epsilon: 1}, http.StatusBadRequest, ""},
		{"/v1/tenants/acme/estimate", EstimateRequest{Table: "events", Stat: "count", GroupBy: "grp", Rho: 0.01}, http.StatusBadRequest, ""},
		{"/v1/tenants/acme/estimate", EstimateRequest{Table: "events", Column: "v", Stat: "mean", GroupBy: "grp", Unit: "record", Epsilon: 1}, http.StatusBadRequest, ""},
		{"/v1/tenants/acme/estimate", EstimateRequest{Table: "events", Column: "v", Stat: "mean", GroupBy: "grp", Epsilon: 1, ContributionBound: -2}, http.StatusBadRequest, "bad_contribution_bound"},
		{"/v1/tenants/acme/query", QueryRequest{SQL: "SELECT AVG(v) FROM events", GroupBy: "grp", Epsilon: 1, ContributionBound: -2}, http.StatusBadRequest, "bad_contribution_bound"},
		{"/v1/tenants/acme/histogram", HistogramRequest{Table: "events", Epsilon: 1}, http.StatusBadRequest, ""},
		{"/v1/tenants/acme/histogram", HistogramRequest{Table: "events", GroupBy: "grp", Epsilon: 1, ContributionBound: -5}, http.StatusBadRequest, "bad_contribution_bound"},
		{"/v1/tenants/acme/estimate", EstimateRequest{Table: "events", Column: "v", Stat: "mean", GroupBy: "grp", Epsilon: 1, ContributionBound: -1}, http.StatusBadRequest, "bad_contribution_bound"},
		{"/v1/tenants/acme/query", QueryRequest{SQL: "SELECT AVG(v) FROM events", GroupBy: "grp", Epsilon: 1, ContributionBound: -1}, http.StatusBadRequest, "bad_contribution_bound"},
		{"/v1/tenants/acme/histogram", HistogramRequest{Table: "events", GroupBy: "grp", Epsilon: 1, ContributionBound: -1}, http.StatusBadRequest, "bad_contribution_bound"},
		{"/v1/tenants/acme/estimate", EstimateRequest{Table: "events", Column: "v", Stat: "mean", Epsilon: 1, ContributionBound: -1}, http.StatusBadRequest, "bad_contribution_bound"},
		{"/v1/tenants/acme/histogram", HistogramRequest{Table: "nope", GroupBy: "grp", Epsilon: 1}, http.StatusNotFound, ""},
	}
	for i, b := range bad {
		var e apiError
		if code := c.do("POST", b.path, b.body, &e); code != b.code {
			t.Fatalf("bad request %d: code %d (%+v), want %d", i, code, e, b.code)
		}
		if b.ec != "" && e.Code != b.ec {
			t.Fatalf("bad request %d: error code %q, want %q", i, e.Code, b.ec)
		}
	}
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	if st.Spent != 1.0 || st.AuditRecords != 2 {
		t.Fatalf("refused requests charged: spent=%v audit=%d", st.Spent, st.AuditRecords)
	}
}

// TestUngroupedQueryBoundSharesCache: an ungrouped query runs at bound 1
// whatever contribution_bound says, so the same query sent without a
// bound and then with bound 2 is one release: the second is a cache
// replay, and the tenant is charged and audited once.
func TestUngroupedQueryBoundSharesCache(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 7, Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := newClient(t, ts.URL)
	provisionGrouped(t, c, "acme", 100)

	var q1, q2 QueryResponse
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM events", Epsilon: 1,
	}, &q1); code != http.StatusOK || q1.Cached {
		t.Fatalf("first query: code %d, cached %v", code, q1.Cached)
	}
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM events", Epsilon: 1, ContributionBound: 2,
	}, &q2); code != http.StatusOK || !q2.Cached {
		t.Fatalf("bound-2 query: code %d, cached %v", code, q2.Cached)
	}
	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	if st.Spent != 1 || st.AuditRecords != 1 {
		t.Fatalf("one ungrouped query spelled two ways: spent=%v audit=%d, want 1 and 1", st.Spent, st.AuditRecords)
	}
}

// TestGroupedParallelSustainsKTimesEvenSplit is the grouped accounting
// duel: two pure tenants with the same budget release the same k = 3
// bucket counts at equal per-bucket accuracy until each is refused. The
// parallel twin asks for one histogram at ε₀ at the default contribution
// bound: groups partition users, so each bucket gets the full ε₀ and the
// histogram costs ε₀. The scalar twin releases each bucket on its own, k
// WHERE-filtered COUNT(*) queries at ε₀ each — what splitting k·ε₀ evenly
// across the groups amounts to — so a round costs k·ε₀. Same accuracy, k
// times the price: the parallel twin sustains ~k× the rounds.
func TestGroupedParallelSustainsKTimesEvenSplit(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 21, Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := newClient(t, ts.URL)

	const (
		k      = 3
		budget = 100.0
		eps0   = 0.5
	)
	groups := [k]string{"a", "b", "c"}
	// round releases the k bucket counts once and reports them, or false
	// once the tenant refuses. A relative 1e-9 jitter keeps every request
	// byte-distinct, so none is a free cache replay.
	rounds := []func(n int) ([]float64, bool){
		func(n int) ([]float64, bool) { // parallel: one grouped histogram
			var h HistogramResponse
			code := c.do("POST", "/v1/tenants/parallel/histogram", HistogramRequest{
				Table: "events", GroupBy: "grp", Epsilon: eps0 * (1 + float64(n)*1e-9),
			}, &h)
			if code == http.StatusTooManyRequests {
				return nil, false
			}
			if code != http.StatusOK || h.Cached || len(h.Buckets) != k {
				t.Fatalf("parallel release %d: code %d, %+v", n, code, h)
			}
			var counts []float64
			for i, b := range h.Buckets {
				if b.Group != groups[i] {
					t.Fatalf("parallel release %d: bucket %d is %q", n, i, b.Group)
				}
				counts = append(counts, b.Count)
			}
			return counts, true
		},
		func(n int) ([]float64, bool) { // scalar: one filtered count per bucket
			var counts []float64
			for _, g := range groups {
				var q QueryResponse
				code := c.do("POST", "/v1/tenants/scalar/query", QueryRequest{
					SQL:     "SELECT COUNT(*) FROM events WHERE grp = '" + g + "'",
					Epsilon: eps0 * (1 + float64(n)*1e-9),
				}, &q)
				if code == http.StatusTooManyRequests {
					return nil, false
				}
				if code != http.StatusOK || q.Cached || len(q.Rows) != 1 {
					t.Fatalf("scalar release %d bucket %s: code %d, %+v", n, g, code, q)
				}
				counts = append(counts, q.Rows[0].Values[0])
			}
			return counts, true
		},
	}
	// Per bucket the parallel twin counts the 4 users first seen there;
	// an unclamped filtered count sees all 12.
	trueCount := [2]float64{4, 12}
	var sustained [2]int
	var mse [2]float64
	for i, id := range []string{"parallel", "scalar"} {
		provisionGrouped(t, c, id, budget)
		var sq float64
		for n := 0; ; n++ {
			counts, ok := rounds[i](n)
			if !ok {
				sustained[i] = n
				break
			}
			for _, v := range counts {
				d := v - trueCount[i]
				sq += d * d
			}
		}
		if sustained[i] == 0 {
			t.Fatalf("%s: first round refused", id)
		}
		mse[i] = sq / float64(k*sustained[i])
	}
	t.Logf("sustained rounds: parallel %d, scalar %d; per-bucket MSE %.2f vs %.2f (Laplace(1/ε₀) variance %.0f)",
		sustained[0], sustained[1], mse[0], mse[1], 2/(eps0*eps0))

	if ratio := float64(sustained[0]) / float64(sustained[1]); ratio < 2.9 {
		t.Fatalf("parallel twin sustained %d rounds, scalar %d: ratio %.2f, want >= 2.9", sustained[0], sustained[1], ratio)
	}
	// The duel is only fair if both twins buy the same accuracy.
	if r := mse[0] / mse[1]; r > 2 || r < 0.5 {
		t.Fatalf("per-bucket MSE parallel %.2f vs scalar %.2f: not equal accuracy (ratio %.2f)", mse[0], mse[1], r)
	}
}

// TestGroupedCrashDrill: a grouped release is acked, the server dies
// without flush, the directory re-opens — the single deduction and its
// single audit record survive, exactly once (never doubled, never lost).
func TestGroupedCrashDrill(t *testing.T) {
	dir := t.TempDir()
	_, cA, stopA := openDurable(t, dir, 21)
	provisionGrouped(t, cA, "acme", 100)

	var h HistogramResponse
	if code := cA.do("POST", "/v1/tenants/acme/histogram", HistogramRequest{
		Table: "events", GroupBy: "grp", Epsilon: 2,
	}, &h); code != http.StatusOK {
		t.Fatalf("histogram: %d", code)
	}
	var q QueryResponse
	if code := cA.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT MEDIAN(v) FROM events", GroupBy: "grp", Epsilon: 3,
	}, &q); code != http.StatusOK {
		t.Fatalf("grouped query: %d", code)
	}
	var before TenantStatus
	if code := cA.do("GET", "/v1/tenants/acme", nil, &before); code != http.StatusOK {
		t.Fatal("status")
	}
	if before.Spent != 5 || before.AuditRecords != 2 {
		t.Fatalf("pre-kill: spent=%v audit=%d, want 5/2", before.Spent, before.AuditRecords)
	}
	stopA() // crash: no Close, no flush

	srvB, cB, stopB := openDurable(t, dir, 22)
	defer stopB()
	defer srvB.Close()
	var after TenantStatus
	if code := cB.do("GET", "/v1/tenants/acme", nil, &after); code != http.StatusOK {
		t.Fatal("recovered status")
	}
	if after.Spent != before.Spent {
		t.Fatalf("grouped spend not exactly recovered: %v -> %v", before.Spent, after.Spent)
	}
	var audit AuditResponse
	if code := cB.do("GET", "/v1/tenants/acme/audit", nil, &audit); code != http.StatusOK {
		t.Fatal("recovered audit")
	}
	if audit.Total != 2 {
		t.Fatalf("recovered audit total = %d, want exactly 2", audit.Total)
	}
	if audit.Records[0].Path != "histogram" || audit.Records[0].Cost.Eps != 2 ||
		audit.Records[1].Path != "query" || audit.Records[1].Cost.Eps != 3 {
		t.Fatalf("recovered audit records: %+v", audit.Records)
	}
	// The recovered table still answers grouped releases with the same
	// clamp semantics.
	var h2 HistogramResponse
	if code := cB.do("POST", "/v1/tenants/acme/histogram", HistogramRequest{
		Table: "events", GroupBy: "grp", Epsilon: 10,
	}, &h2); code != http.StatusOK {
		t.Fatal("recovered histogram")
	}
	if len(h2.Buckets) != 3 {
		t.Fatalf("recovered buckets: %+v", h2.Buckets)
	}
}

// TestConcurrentGroupedReleasesIngestFlush races grouped releases
// against ingest batches and snapshot flushes on a durable sharded
// tenant (run under -race in CI), then checks the books: one audit
// record per charged grouped release and spend equal to the audit sum.
func TestConcurrentGroupedReleasesIngestFlush(t *testing.T) {
	dir := t.TempDir()
	srv, c, stop := openDurable(t, dir, 23)
	defer stop()
	defer srv.Close()
	provisionGrouped(t, c, "acme", 1e6)

	const perWorker = 6
	var wg sync.WaitGroup
	var released [3]int
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := newClient(t, c.base)
			for i := 0; i < perWorker; i++ {
				eps := 0.001 * float64(1+w*perWorker+i) // distinct: no cache hits
				var code int
				if w%2 == 0 {
					code = cl.do("POST", "/v1/tenants/acme/histogram", HistogramRequest{
						Table: "events", GroupBy: "grp", Epsilon: eps,
					}, nil)
				} else {
					code = cl.do("POST", "/v1/tenants/acme/query", QueryRequest{
						SQL: "SELECT COUNT(*) FROM events", GroupBy: "grp", Epsilon: eps,
					}, nil)
				}
				if code == http.StatusOK {
					released[w]++
				} else if code != http.StatusServiceUnavailable {
					t.Errorf("worker %d release %d: code %d", w, i, code)
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := newClient(t, c.base)
		for i := 0; i < perWorker; i++ {
			rows := [][]any{{fmt.Sprintf("x%03d", i), float64(i), "a"}}
			if code := cl.do("POST", "/v1/tenants/acme/tables/events/rows", InsertRowsRequest{Rows: rows}, nil); code != http.StatusOK {
				t.Errorf("ingest %d: code %d", i, code)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := srv.Flush(); err != nil {
				t.Errorf("flush %d: %v", i, err)
			}
		}
	}()
	wg.Wait()

	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	var audit AuditResponse
	if code := c.do("GET", "/v1/tenants/acme/audit", nil, &audit); code != http.StatusOK {
		t.Fatal("audit")
	}
	want := uint64(released[0] + released[1] + released[2])
	if audit.Total != want {
		t.Fatalf("audit records = %d, want %d (one per charged grouped release)", audit.Total, want)
	}
	var sum float64
	for audit.NextAfter != 0 || len(audit.Records) > 0 {
		for _, r := range audit.Records {
			sum += r.NativeCost
		}
		if audit.NextAfter == 0 {
			break
		}
		next := fmt.Sprintf("/v1/tenants/acme/audit?after=%d", audit.NextAfter)
		audit = AuditResponse{}
		if code := c.do("GET", next, nil, &audit); code != http.StatusOK {
			t.Fatal("audit page")
		}
	}
	if math.Abs(sum-st.Spent) > 1e-9 {
		t.Fatalf("audit sum %v != spend %v", sum, st.Spent)
	}
}
