package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dp"
)

// openDurable starts a durable test server on dir.
func openDurable(t *testing.T, dir string, seed uint64, opts ...func(*Options)) (*Server, *client, func()) {
	t.Helper()
	o := Options{Seed: seed, Workers: 4, DataDir: dir}
	for _, f := range opts {
		f(&o)
	}
	srv := mustOpen(t, o)
	hs := httptest.NewServer(srv)
	return srv, newClient(t, hs.URL), hs.Close
}

// TestRestartRoundTrip is the acceptance scenario: create a zcdp tenant
// on a durable server, ingest, release, kill WITHOUT flush, re-open the
// same data dir — queries must answer from recovered data and the
// reported spend (native units and (ε, δ) view) must be >= the pre-kill
// spend, never refilled.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, cA, stopA := openDurable(t, dir, 1)
	if code := cA.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "acme", Epsilon: 16, Accounting: "zcdp", Delta: 1e-6,
	}, nil); code != http.StatusCreated {
		t.Fatalf("create tenant: %d", code)
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables", CreateTableRequest{
		Name:       "metrics",
		Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}},
		UserColumn: "uid",
	}, nil); code != http.StatusCreated {
		t.Fatalf("create table: %d", code)
	}
	rows := make([][]any, 0, 400)
	for u := 0; u < 200; u++ {
		uid := fmt.Sprintf("u%03d", u)
		rows = append(rows, []any{uid, 100.0 + float64(u%7)}, []any{uid, 100.0 - float64(u%5)})
	}
	var ins InsertRowsResponse
	if code := cA.do("POST", "/v1/tenants/acme/tables/metrics/rows", InsertRowsRequest{Rows: rows}, &ins); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}
	// Mixed releases: estimator (direct ledger path) and SQL (dpsql
	// ledger path) plus a natively-ρ count — all three deduct routes.
	var est EstimateResponse
	if code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "median", Epsilon: 0.5,
	}, &est); code != http.StatusOK {
		t.Fatalf("estimate: %d", code)
	}
	var q QueryResponse
	if code := cA.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT AVG(v) FROM metrics", Epsilon: 0.5,
	}, &q); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Stat: "count", Rho: 0.001,
	}, &est); code != http.StatusOK {
		t.Fatalf("rho count: %d", code)
	}
	var before TenantStatus
	if code := cA.do("GET", "/v1/tenants/acme", nil, &before); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if before.Spent <= 0 {
		t.Fatalf("pre-kill spend = %v, want > 0", before.Spent)
	}
	// Kill without flush: only the listener stops; srvA.Close (which
	// would snapshot) is never called. The WAL alone must carry the spend
	// — every deduction was fsynced before its answer was released.
	stopA()

	srvB, cB, stopB := openDurable(t, dir, 2)
	defer stopB()
	defer srvB.Close()
	var after TenantStatus
	if code := cB.do("GET", "/v1/tenants/acme", nil, &after); code != http.StatusOK {
		t.Fatalf("recovered status: %d", code)
	}
	if after.Accounting != "zcdp" || after.Unit != "rho" || after.Delta != 1e-6 {
		t.Fatalf("recovered accounting config: %+v", after)
	}
	if after.Spent < before.Spent {
		t.Fatalf("native spend refilled: %v -> %v", before.Spent, after.Spent)
	}
	if after.SpentEpsilon < before.SpentEpsilon {
		t.Fatalf("(eps, delta) spend view refilled: %v -> %v", before.SpentEpsilon, after.SpentEpsilon)
	}
	if after.Total != before.Total {
		t.Fatalf("budget ceiling changed: %v -> %v", before.Total, after.Total)
	}
	// Queries answer from the recovered rows.
	var q2 QueryResponse
	if code := cB.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 2,
	}, &q2); code != http.StatusOK {
		t.Fatalf("recovered query: %d", code)
	}
	// COUNT is user-level: ~200 users, Laplace scale 1/2 — a deviation
	// beyond ±30 is astronomically unlikely.
	if n := q2.Rows[0].Values[0]; n < 170 || n > 230 {
		t.Fatalf("recovered COUNT(*) = %v, want ~200 (rows lost?)", n)
	}
	var est2 EstimateResponse
	if code := cB.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 0.5,
	}, &est2); code != http.StatusOK {
		t.Fatalf("recovered estimate: %d", code)
	}
	// Deterministic integrity check, no mechanism noise: the recovered
	// table holds byte-for-byte the ingested rows.
	tn, ok := srvB.Tenant("acme")
	if !ok {
		t.Fatal("recovered tenant not registered")
	}
	tab, err := tn.Table("metrics")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != len(rows) {
		t.Fatalf("recovered %d rows, ingested %d", tab.NumRows(), len(rows))
	}
	means, err := tab.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	// u000 contributed 100+0 and 100-0 -> mean exactly 100.
	if len(means) != 200 || means[0] != 100 {
		t.Fatalf("recovered user means corrupted: n=%d first=%v", len(means), means[0])
	}
}

// TestRestartNeverRefillsExhaustedBudget: an exhausted tenant stays
// exhausted across a crash — the attack the store exists to close.
func TestRestartNeverRefillsExhaustedBudget(t *testing.T) {
	dir := t.TempDir()
	_, cA, stopA := openDurable(t, dir, 3)
	if code := cA.do("POST", "/v1/tenants", CreateTenantRequest{ID: "acme", Epsilon: 1}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables", CreateTableRequest{
		Name:       "m",
		Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}},
		UserColumn: "uid",
	}, nil); code != http.StatusCreated {
		t.Fatalf("table: %d", code)
	}
	rows := make([][]any, 50)
	for u := range rows {
		rows[u] = []any{fmt.Sprintf("u%02d", u), float64(u)}
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables/m/rows", InsertRowsRequest{Rows: rows}, nil); code != http.StatusOK {
		t.Fatal("insert")
	}
	// Exhaust: 2 releases at 0.5 spend the whole eps=1.
	for i := 0; i < 2; i++ {
		req := EstimateRequest{Table: "m", Column: "v", Stat: "mean", Epsilon: 0.5, Beta: 0.1 + 0.01*float64(i)}
		if code := cA.do("POST", "/v1/tenants/acme/estimate", req, nil); code != http.StatusOK {
			t.Fatalf("release %d: %d", i, code)
		}
	}
	if code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "m", Column: "v", Stat: "median", Epsilon: 0.5,
	}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("overdraw pre-crash: %d, want 429", code)
	}
	stopA() // crash

	srvB, cB, stopB := openDurable(t, dir, 4)
	defer stopB()
	defer srvB.Close()
	if code := cB.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "m", Column: "v", Stat: "median", Epsilon: 0.5,
	}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("crash refilled the budget: post-restart release got %d, want 429", code)
	}
}

// TestCloseFlushCompacts: a graceful Close writes snapshots, so the next
// boot replays from the snapshot with an empty WAL tail.
func TestCloseFlushCompacts(t *testing.T) {
	dir := t.TempDir()
	srvA, cA, stopA := openDurable(t, dir, 5)
	if code := cA.do("POST", "/v1/tenants", CreateTenantRequest{ID: "acme", Epsilon: 8}, nil); code != http.StatusCreated {
		t.Fatal("create")
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables", CreateTableRequest{
		Name:       "m",
		Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}},
		UserColumn: "uid",
	}, nil); code != http.StatusCreated {
		t.Fatal("table")
	}
	rows := make([][]any, 40)
	for u := range rows {
		rows[u] = []any{fmt.Sprintf("u%02d", u), float64(u)}
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables/m/rows", InsertRowsRequest{Rows: rows}, nil); code != http.StatusOK {
		t.Fatal("insert")
	}
	if code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "m", Column: "v", Stat: "mean", Epsilon: 0.5,
	}, nil); code != http.StatusOK {
		t.Fatal("estimate")
	}
	stopA()
	if err := srvA.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "acme", "snapshot.json"))
	if err != nil || len(snap) == 0 {
		t.Fatalf("Close did not write a snapshot: %v", err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "acme", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 0 {
		t.Fatalf("WAL not rotated after flush: %d bytes", len(wal))
	}

	srvB, cB, stopB := openDurable(t, dir, 6)
	defer stopB()
	defer srvB.Close()
	var st TenantStatus
	if code := cB.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("recovered status")
	}
	if st.Spent != 0.5 || st.Total != 8 {
		t.Fatalf("recovered ledger: spent=%v total=%v", st.Spent, st.Total)
	}
}

// TestWindowedRestartOverCounts: a graceful restart restores a windowed
// tenant the way crash recovery and background compaction do. Close
// compacts from the WAL, whose replay pins every deduction into the
// current window, so spend may be over-counted until the next boundary —
// never under-counted, and the budget refills within one window.
func TestWindowedRestartOverCounts(t *testing.T) {
	dir := t.TempDir()
	const window = 0.2 // seconds
	srvA, cA, stopA := openDurable(t, dir, 10)
	if code := cA.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "w", Epsilon: 1, WindowSeconds: window,
	}, nil); code != http.StatusCreated {
		t.Fatalf("create windowed tenant: %d", code)
	}
	seedTables(t, cA, "w", 50)
	// Exhaust the window, wait out the refill, spend again.
	if code := cA.do("POST", "/v1/tenants/w/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 1,
	}, nil); code != http.StatusOK {
		t.Fatalf("exhausting release: %d", code)
	}
	pollRelease(t, cA, time.Now().Add(5*time.Second), "windowed tenant never refilled")
	var before TenantStatus
	if code := cA.do("GET", "/v1/tenants/w", nil, &before); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if before.Spent <= 0 {
		t.Fatalf("pre-close spend %v — the refilled window was not spent", before.Spent)
	}
	stopA()
	if err := srvA.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if snap, err := os.ReadFile(filepath.Join(dir, "w", "snapshot.json")); err != nil || len(snap) == 0 {
		t.Fatalf("Close did not write a snapshot: %v", err)
	}
	if wal, err := os.ReadFile(filepath.Join(dir, "w", "wal.log")); err != nil || len(wal) != 0 {
		t.Fatalf("WAL not empty after Close: %d bytes, %v", len(wal), err)
	}

	srvB, cB, stopB := openDurable(t, dir, 11)
	defer stopB()
	defer srvB.Close()
	reopened := time.Now()
	tn, ok := srvB.Tenant("w")
	if !ok {
		t.Fatal("windowed tenant not recovered")
	}
	wl, ok := tn.Ledger().(*dp.WindowedLedger)
	if !ok {
		t.Fatalf("recovered ledger %T, want *dp.WindowedLedger", tn.Ledger())
	}
	// The inner ledger, read without the decorator's refill, holds the
	// recovered spend: both windows' deductions (1 + 0.5), pinned into
	// this one.
	got := wl.Inner().Spent()
	if got < before.Spent {
		t.Fatalf("recovered spend %v < pre-close spend %v", got, before.Spent)
	}
	if got < 1.5 {
		t.Fatalf("recovered spend %v < 1.5: a replayed deduction was dropped, not pinned", got)
	}
	// Close's replay set the next boundary one window after it ran, so
	// the pinned spend refills within one window of the restart (the
	// slack covers request latency).
	deadline := reopened.Add(time.Duration(window*float64(time.Second)) + 500*time.Millisecond)
	pollRelease(t, cB, deadline, "recovered windowed tenant did not refill within one window")
}

// pollRelease retries a 0.5-ε release on tenant w's metrics table while
// it is refused for budget, failing with msg once deadline passes.
func pollRelease(t *testing.T, c *client, deadline time.Time, msg string) {
	t.Helper()
	for {
		code := c.do("POST", "/v1/tenants/w/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "median", Epsilon: 0.5,
		}, nil)
		if code == http.StatusOK {
			return
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("release: status %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDurableTenantIDValidation: ids become directory names; traversal
// must be refused at the API boundary.
func TestDurableTenantIDValidation(t *testing.T) {
	srv, c, stop := openDurable(t, t.TempDir(), 7)
	defer stop()
	defer srv.Close()
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{ID: "..", Epsilon: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("id '..': %d, want 400", code)
	}
}

// TestConcurrentIngestVsFlush races streaming ingestion and releases
// against snapshot compaction, then crash-recovers and checks the spend
// invariant (run with -race).
func TestConcurrentIngestVsFlush(t *testing.T) {
	dir := t.TempDir()
	srvA, cA, stopA := openDurable(t, dir, 8)
	if code := cA.do("POST", "/v1/tenants", CreateTenantRequest{ID: "acme", Epsilon: 1e6}, nil); code != http.StatusCreated {
		t.Fatal("create")
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables", CreateTableRequest{
		Name:       "m",
		Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}},
		UserColumn: "uid",
	}, nil); code != http.StatusCreated {
		t.Fatal("table")
	}
	const (
		ingesters = 4
		batches   = 20
		releasers = 2
		releases  = 15
	)
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := [][]any{{fmt.Sprintf("u%d-%d", g, b), float64(b)}}
				cA.do("POST", "/v1/tenants/acme/tables/m/rows", InsertRowsRequest{Rows: rows}, nil)
			}
		}(g)
	}
	okReleases := make([]int, releasers)
	for g := 0; g < releasers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < releases; i++ {
				p := 0.01 + 0.9*float64(g*releases+i)/float64(releasers*releases)
				code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
					Table: "m", Column: "v", Stat: "quantile", P: p, Epsilon: 0.01,
				}, nil)
				if code == http.StatusOK {
					okReleases[g]++
				}
			}
		}(g)
	}
	flushes := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if err := srvA.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
		flushes++
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	var before TenantStatus
	if code := cA.do("GET", "/v1/tenants/acme", nil, &before); code != http.StatusOK {
		t.Fatal("status")
	}
	answered := okReleases[0] + okReleases[1]
	stopA() // crash without Close

	srvB, cB, stopB := openDurable(t, dir, 9)
	defer stopB()
	defer srvB.Close()
	var after TenantStatus
	if code := cB.do("GET", "/v1/tenants/acme", nil, &after); code != http.StatusOK {
		t.Fatal("recovered status")
	}
	if after.Spent < before.Spent {
		t.Fatalf("spend regressed across %d flushes: %v -> %v", flushes, before.Spent, after.Spent)
	}
	minSpend := 0.01 * float64(answered)
	if after.Spent < minSpend*(1-1e-9) {
		t.Fatalf("recovered spend %v < %v (%d answered releases) — a deduction was lost",
			after.Spent, minSpend, answered)
	}
}

// TestInMemoryServerUnchanged: without DataDir nothing touches disk and
// the server still hosts tenants.
func TestInMemoryServerUnchanged(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 10})
	defer srv.Close()
	if srv.DataDir() != "" {
		t.Fatalf("in-memory server has a data dir: %q", srv.DataDir())
	}
	if _, err := srv.CreateTenant("x", 1); err != nil {
		t.Fatal(err)
	}
}
