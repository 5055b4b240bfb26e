package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// TestCompactionConcurrentWithReleases is the serve-level stall test:
// releases keep charging and answering while CompactTenant runs
// repeatedly on the same tenant — off-path compaction takes neither a
// tenant lock nor the shard locks, so nothing blocks or fails. The
// server is then killed WITHOUT a flush: recovery from the compacted
// snapshot + sealed segments + live tail must report spend at least the
// pre-crash acknowledged spend.
func TestCompactionConcurrentWithReleases(t *testing.T) {
	dir := t.TempDir()
	srvA, cA, stopA := openDurable(t, dir, 3)
	if code := cA.do("POST", "/v1/tenants", CreateTenantRequest{ID: "acme", Epsilon: 1e6}, nil); code != http.StatusCreated {
		t.Fatalf("create tenant: %d", code)
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables", CreateTableRequest{
		Name:       "metrics",
		Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}},
		UserColumn: "uid",
	}, nil); code != http.StatusCreated {
		t.Fatalf("create table: %d", code)
	}
	rows := make([][]any, 0, 200)
	for u := 0; u < 100; u++ {
		uid := fmt.Sprintf("u%03d", u)
		rows = append(rows, []any{uid, 100.0 + float64(u%7)}, []any{uid, 95.0 + float64(u%5)})
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables/metrics/rows", InsertRowsRequest{Rows: rows}, nil); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}

	const releases = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < releases; i++ {
			p := 0.01 + 0.98*float64(i)/releases // distinct: no cache replays
			var est EstimateResponse
			if code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
				Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: 0.01,
			}, &est); code != http.StatusOK {
				t.Errorf("release %d during compaction: HTTP %d", i, code)
				return
			}
		}
	}()
	for i := 0; i < 15; i++ {
		if err := srvA.CompactTenant("acme"); err != nil {
			t.Fatalf("compaction %d: %v", i, err)
		}
	}
	wg.Wait()
	if err := srvA.CompactTenant("nope"); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("CompactTenant on unknown tenant: %v", err)
	}

	var before TenantStatus
	if code := cA.do("GET", "/v1/tenants/acme", nil, &before); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if before.Spent <= 0 {
		t.Fatalf("pre-crash spend %v — the test did not spend", before.Spent)
	}
	stopA() // crash: no Close, no Flush — snapshot + segments + tail only

	_, cB, stopB := openDurable(t, dir, 4)
	defer stopB()
	var after TenantStatus
	if code := cB.do("GET", "/v1/tenants/acme", nil, &after); code != http.StatusOK {
		t.Fatalf("post-recovery status: %d", code)
	}
	if after.Spent < before.Spent {
		t.Fatalf("recovered spend %v < acknowledged %v — compaction lost deductions", after.Spent, before.Spent)
	}
	var q QueryResponse
	if code := cB.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 2,
	}, &q); code != http.StatusOK {
		t.Fatalf("post-recovery query: %d", code)
	}
}

// TestMemAuditSeqGapHardError: the in-memory audit sink enforces the
// same gap-free seq invariant the durable log's reconcile does — a
// discontinuity between the retained tail and the counter is a hard
// error, not something to paper over by appending past it.
func TestMemAuditSeqGapHardError(t *testing.T) {
	a := &memAudit{}
	for i := 0; i < 3; i++ {
		if err := a.Append(&store.AuditRecord{ReleaseID: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	a.seq++ // simulate a lost record: counter moves, ring tail does not
	err := a.Append(&store.AuditRecord{ReleaseID: "r-gap"})
	if err == nil || !strings.Contains(err.Error(), "audit seq gap") {
		t.Fatalf("Append over a seq gap: %v, want gap error", err)
	}
	if got := a.Len(); got != 4 {
		t.Fatalf("Len after refused append = %d, want 4", got)
	}
}
