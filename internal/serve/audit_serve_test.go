package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAuditMatchesLedger is the acceptance invariant: for a pure tenant
// the audit log replays exactly the releases the ledger charged — same
// count, and NativeCost summing to TenantStatus.Spent — while cache
// replays and budget refusals leave no record.
func TestAuditMatchesLedger(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 11, Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 2, 100)
	// The whole test runs in a burst the odometer would coalesce into one
	// sample (its clock is wall time); inject a clock that advances a
	// second per reading so the burn rate has a measurable baseline.
	tn, ok := srv.Tenant("acme")
	if !ok {
		t.Fatal("tenant not registered")
	}
	fake := time.Unix(1_700_000_000, 0)
	tn.odo.SetNow(func() time.Time { fake = fake.Add(time.Second); return fake })

	// Five distinct charged releases: four estimates and one SQL query.
	for i := 0; i < 4; i++ {
		p := 0.2 + 0.15*float64(i)
		if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: 0.25,
		}, nil); code != http.StatusOK {
			t.Fatalf("estimate %d: %d", i, code)
		}
	}
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 0.5,
	}, nil); code != http.StatusOK {
		t.Fatal("query")
	}
	// A cache replay charges nothing and must not be audited.
	var q QueryResponse
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 0.5,
	}, &q); code != http.StatusOK || !q.Cached {
		t.Fatalf("replay: code=%d cached=%v", code, q.Cached)
	}
	// A budget refusal charges nothing and must not be audited
	// (spent = 4*0.25 + 0.5 = 1.5 of 2; 0.75 overdraws).
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "median", Epsilon: 0.75,
	}, nil); code != http.StatusTooManyRequests {
		t.Fatal("overdraw should refuse")
	}

	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	var audit AuditResponse
	if code := c.do("GET", "/v1/tenants/acme/audit", nil, &audit); code != http.StatusOK {
		t.Fatal("audit")
	}
	if audit.Tenant != "acme" || audit.Total != 5 || len(audit.Records) != 5 {
		t.Fatalf("audit page: tenant=%q total=%d records=%d, want acme/5/5",
			audit.Tenant, audit.Total, len(audit.Records))
	}
	if st.AuditRecords != audit.Total {
		t.Fatalf("TenantStatus.AuditRecords=%d, audit Total=%d", st.AuditRecords, audit.Total)
	}
	var sum float64
	paths := map[string]int{}
	for i, r := range audit.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d (oldest first, dense)", i, r.Seq, i+1)
		}
		if r.ReleaseID == "" || r.Unit != "eps" || r.NativeCost <= 0 {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
		sum += r.NativeCost
		paths[r.Path]++
	}
	if paths["estimate"] != 4 || paths["query"] != 1 {
		t.Fatalf("audited paths %v, want 4 estimates + 1 query", paths)
	}
	if math.Abs(sum-st.Spent) > 1e-12 {
		t.Fatalf("audit sum %v != ledger spent %v", sum, st.Spent)
	}
	if st.BurnPerSecond <= 0 {
		t.Fatalf("burn rate %v after 5 releases, want > 0", st.BurnPerSecond)
	}
}

// TestAuditPagination walks the log in pages of 2 and checks the cursor
// contract: NextAfter chains pages with no gaps or repeats and is absent
// on the last page; bad parameters are 400s.
func TestAuditPagination(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 12, Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 10, 60)

	const releases = 5
	for i := 0; i < releases; i++ {
		p := 0.1 + 0.15*float64(i)
		if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: 0.1,
		}, nil); code != http.StatusOK {
			t.Fatalf("estimate %d: %d", i, code)
		}
	}
	var seqs []uint64
	after, pages := uint64(0), 0
	for {
		var page AuditResponse
		path := fmt.Sprintf("/v1/tenants/acme/audit?limit=2&after=%d", after)
		if code := c.do("GET", path, nil, &page); code != http.StatusOK {
			t.Fatalf("page after=%d: %d", after, code)
		}
		pages++
		for _, r := range page.Records {
			seqs = append(seqs, r.Seq)
		}
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
		if pages > releases {
			t.Fatal("pagination does not terminate")
		}
	}
	if pages != 3 || len(seqs) != releases {
		t.Fatalf("walked %d pages, %d records; want 3 pages, %d records", pages, len(seqs), releases)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("page walk out of order: %v", seqs)
		}
	}
	// Cursor past the end: empty page, no NextAfter.
	var tail AuditResponse
	if code := c.do("GET", "/v1/tenants/acme/audit?after=999", nil, &tail); code != http.StatusOK {
		t.Fatal("tail page")
	}
	if len(tail.Records) != 0 || tail.NextAfter != 0 {
		t.Fatalf("past-the-end page: %+v", tail)
	}
	// Malformed parameters.
	if code := c.do("GET", "/v1/tenants/acme/audit?after=x", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("after=x: %d, want 400", code)
	}
	if code := c.do("GET", "/v1/tenants/acme/audit?limit=0", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("limit=0: %d, want 400", code)
	}
}

// TestAuditSurvivesCrash: on a durable server every acknowledged
// release's audit line is fsynced before the answer goes out, so a crash
// (listener killed, no Close/flush) loses nothing: the reopened log
// replays the same records and still sums to the recovered spend.
func TestAuditSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	_, cA, stopA := openDurable(t, dir, 13)
	if code := cA.do("POST", "/v1/tenants", CreateTenantRequest{ID: "acme", Epsilon: 10}, nil); code != http.StatusCreated {
		t.Fatal("create")
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables", CreateTableRequest{
		Name:       "m",
		Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}},
		UserColumn: "uid",
	}, nil); code != http.StatusCreated {
		t.Fatal("table")
	}
	rows := make([][]any, 80)
	for u := range rows {
		rows[u] = []any{fmt.Sprintf("u%02d", u), float64(u)}
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables/m/rows", InsertRowsRequest{Rows: rows}, nil); code != http.StatusOK {
		t.Fatal("insert")
	}
	for i := 0; i < 3; i++ {
		p := 0.2 + 0.2*float64(i)
		if code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "m", Column: "v", Stat: "quantile", P: p, Epsilon: 0.5,
		}, nil); code != http.StatusOK {
			t.Fatalf("release %d: %d", i, code)
		}
	}
	var auditA AuditResponse
	if code := cA.do("GET", "/v1/tenants/acme/audit", nil, &auditA); code != http.StatusOK {
		t.Fatal("pre-crash audit")
	}
	if auditA.Total != 3 {
		t.Fatalf("pre-crash audit total %d, want 3", auditA.Total)
	}
	stopA() // crash: no Close, no flush

	srvB, cB, stopB := openDurable(t, dir, 14)
	defer stopB()
	defer srvB.Close()
	var auditB AuditResponse
	if code := cB.do("GET", "/v1/tenants/acme/audit", nil, &auditB); code != http.StatusOK {
		t.Fatal("post-crash audit")
	}
	if auditB.Total != auditA.Total || len(auditB.Records) != len(auditA.Records) {
		t.Fatalf("crash lost audit lines: %d/%d -> %d/%d",
			auditA.Total, len(auditA.Records), auditB.Total, len(auditB.Records))
	}
	var sum float64
	for i, r := range auditB.Records {
		a := auditA.Records[i]
		if r.Seq != a.Seq || r.ReleaseID != a.ReleaseID || r.NativeCost != a.NativeCost {
			t.Fatalf("record %d changed across crash: %+v -> %+v", i, a, r)
		}
		sum += r.NativeCost
	}
	var st TenantStatus
	if code := cB.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("recovered status")
	}
	if math.Abs(sum-st.Spent) > 1e-12 {
		t.Fatalf("recovered audit sum %v != recovered spend %v", sum, st.Spent)
	}
	// The recovered log keeps appending with the same seq discipline.
	if code := cB.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "m", Column: "v", Stat: "median", Epsilon: 0.5,
	}, nil); code != http.StatusOK {
		t.Fatal("post-recovery release")
	}
	var auditC AuditResponse
	if code := cB.do("GET", "/v1/tenants/acme/audit", nil, &auditC); code != http.StatusOK {
		t.Fatal("post-recovery audit")
	}
	if auditC.Total != auditA.Total+1 || auditC.Records[len(auditC.Records)-1].Seq != auditA.Total+1 {
		t.Fatalf("post-recovery append broke seq: total=%d last=%+v",
			auditC.Total, auditC.Records[len(auditC.Records)-1])
	}
}

// TestDurableReleaseOneBarrier: on a durable tenant each charged release
// pays exactly one WAL fsync — its audit record rides the deduction's
// group-commit entry — and the audit log gains one record per release,
// stamped with the release id the client saw. Releases run one at a time
// with no ingest, so no other entry can share or add a barrier.
func TestDurableReleaseOneBarrier(t *testing.T) {
	_, c, stop := openDurable(t, t.TempDir(), 13)
	defer stop()
	seedTenant(t, c, "acme", 100, 200)

	releases := []struct{ path, body string }{
		{"estimate", `{"table":"metrics","column":"v","stat":"quantile","p":0.3,"epsilon":0.5}`},
		{"query", `{"sql":"SELECT AVG(v) FROM metrics","epsilon":0.5}`},
		{"histogram", `{"table":"metrics","group_by":"grp","epsilon":0.5}`},
		{"estimate", `{"table":"metrics","column":"v","stat":"median","group_by":"grp","epsilon":0.5}`},
	}
	fsyncs := func() float64 {
		samples, _ := scrape(t, c.base)
		return samples["updp_wal_fsync_seconds_count"]
	}
	before := fsyncs()
	var ids []string
	for _, r := range releases {
		resp, err := http.Post(c.base+"/v1/tenants/acme/"+r.path, "application/json", strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", r.path, r.body, resp.StatusCode)
		}
		ids = append(ids, resp.Header.Get("X-Release-Id"))
	}
	if got := fsyncs() - before; got != float64(len(releases)) {
		t.Fatalf("%d charged releases paid %v WAL fsyncs, want one each", len(releases), got)
	}
	var audit AuditResponse
	if code := c.do("GET", "/v1/tenants/acme/audit", nil, &audit); code != http.StatusOK {
		t.Fatal("audit")
	}
	if audit.Total != uint64(len(releases)) || len(audit.Records) != len(releases) {
		t.Fatalf("audit holds %d records (%d paged), want %d", audit.Total, len(audit.Records), len(releases))
	}
	for i, r := range audit.Records {
		if r.ReleaseID != ids[i] || r.Path != releases[i].path {
			t.Fatalf("audit record %d: id %q path %q, want %q %q", i, r.ReleaseID, r.Path, ids[i], releases[i].path)
		}
	}
}

// TestDurableAuditFailureWithholdsCharge: when a durable tenant's audit
// line cannot be written, the release is withheld (500 persist_failed)
// and its deduction never reaches the WAL with it, so after a crash the
// recovered spend and audit log hold exactly the answered releases.
func TestDurableAuditFailureWithholdsCharge(t *testing.T) {
	dir := t.TempDir()
	srv, c, stop := openDurable(t, dir, 13)
	seedTenant(t, c, "acme", 10, 100)
	release := func(p float64) (int, apiError) {
		var e apiError
		code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: 0.5,
		}, &e)
		return code, e
	}
	if code, _ := release(0.25); code != http.StatusOK {
		t.Fatalf("release: %d", code)
	}
	tn, _ := srv.Tenant("acme")
	if err := tn.audit.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
	if code, e := release(0.75); code != http.StatusInternalServerError || e.Code != "persist_failed" {
		t.Fatalf("release with a closed audit log: %d %+v, want 500 persist_failed", code, e)
	}
	stop() // crash: no Close, no Flush

	_, c2, stop2 := openDurable(t, dir, 13)
	defer stop2()
	var st TenantStatus
	if code := c2.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	var audit AuditResponse
	if code := c2.do("GET", "/v1/tenants/acme/audit", nil, &audit); code != http.StatusOK {
		t.Fatal("audit")
	}
	if st.Spent != 0.5 || audit.Total != 1 {
		t.Fatalf("recovered spend %v with %d audit records, want 0.5 and 1", st.Spent, audit.Total)
	}
}

// TestChargedFailureIsAudited: a release whose mechanism fails after its
// charge — here, too few users for the estimator — stays charged and is
// audited exactly once, with the release id the client saw, on every
// release shape and on in-memory and durable tenants alike. Errors are
// never cached, so a byte-identical repeat is charged and audited again.
func TestChargedFailureIsAudited(t *testing.T) {
	shapes := []struct{ name, path, mech, body string }{
		{"query", "query", "sql", `{"sql":"SELECT AVG(v) FROM metrics","epsilon":0.5}`},
		{"grouped-query", "query", "sql", `{"sql":"SELECT AVG(v) FROM metrics","group_by":"grp","epsilon":0.5}`},
		{"estimate", "estimate", "mean", `{"table":"metrics","column":"v","stat":"mean","epsilon":0.5}`},
		{"grouped-estimate", "estimate", "mean", `{"table":"metrics","column":"v","stat":"mean","group_by":"grp","epsilon":0.5}`},
	}
	for _, durable := range []bool{false, true} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/durable=%v", sh.name, durable), func(t *testing.T) {
				opts := Options{Seed: 17, Workers: 2}
				if durable {
					opts.DataDir = t.TempDir()
				}
				srv := mustOpen(t, opts)
				defer srv.Close()
				ts := httptest.NewServer(srv)
				defer ts.Close()
				c := newClient(t, ts.URL)
				seedTenant(t, c, "acme", 10, 3)

				for i := 1; i <= 2; i++ {
					resp, err := http.Post(ts.URL+"/v1/tenants/acme/"+sh.path, "application/json", strings.NewReader(sh.body))
					if err != nil {
						t.Fatal(err)
					}
					var e apiError
					if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusUnprocessableEntity || e.Code != "too_few_users" {
						t.Fatalf("attempt %d: %d %+v, want 422 too_few_users", i, resp.StatusCode, e)
					}
					var st TenantStatus
					if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
						t.Fatal("status")
					}
					if want := 0.5 * float64(i); st.Spent != want {
						t.Fatalf("attempt %d: spent %v, want %v (the failed release stays charged)", i, st.Spent, want)
					}
					var audit AuditResponse
					if code := c.do("GET", "/v1/tenants/acme/audit", nil, &audit); code != http.StatusOK {
						t.Fatal("audit")
					}
					if audit.Total != uint64(i) || len(audit.Records) != i {
						t.Fatalf("attempt %d: %d audit records (%d paged), want %d", i, audit.Total, len(audit.Records), i)
					}
					rec := audit.Records[i-1]
					if id := resp.Header.Get("X-Release-Id"); rec.ReleaseID != id || rec.Path != sh.path || rec.Mechanism != sh.mech {
						t.Fatalf("attempt %d: audit record id %q path %q mech %q, want %q %q %q",
							i, rec.ReleaseID, rec.Path, rec.Mechanism, id, sh.path, sh.mech)
					}
				}
			})
		}
	}
}
