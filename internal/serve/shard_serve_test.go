package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dpsql"
	"repro/internal/store"
)

// shardSeedTenant creates a tenant with the given shard count and loads
// the standard metrics table (same data as seedTenant, same seed).
func shardSeedTenant(t *testing.T, c *client, id string, shards int, nUsers int) {
	t.Helper()
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{ID: id, Epsilon: 1e6, Shards: shards}, nil); code != http.StatusCreated {
		t.Fatalf("create tenant: status %d", code)
	}
	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/"+id, nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	want := shards
	if want == 0 {
		want = 1
	}
	if st.Shards != want {
		t.Fatalf("tenant shards = %d, want %d", st.Shards, want)
	}
	seedTenantTable(t, c, id, nUsers)
}

// seedTenantTable creates and fills the metrics table for an existing
// tenant (deterministic rows, multiple rows per user).
func seedTenantTable(t *testing.T, c *client, id string, nUsers int) {
	t.Helper()
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
	rows := make([][]any, 0, 2*nUsers)
	for u := 0; u < nUsers; u++ {
		uid := fmt.Sprintf("u%05d", u)
		grp := "a"
		if u%2 == 1 {
			grp = "b"
		}
		for r := 0; r < 2; r++ {
			rows = append(rows, []any{uid, 100 + float64((u*7+r*3)%41) - 20, float64(u % 13), grp})
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

// shardReleaseSuite runs a fixed, order-deterministic sequence of
// releases covering every scan shape (per-user collapse, record unit,
// empirical int sums, SQL with GROUP BY and WHERE, counts) and returns
// the released values.
func shardReleaseSuite(t *testing.T, c *client, id string) []float64 {
	t.Helper()
	var out []float64
	ests := []EstimateRequest{
		{Table: "metrics", Column: "v", Stat: "mean", Epsilon: 0.5},
		{Table: "metrics", Column: "v", Stat: "median", Epsilon: 0.5},
		{Table: "metrics", Column: "v", Stat: "quantile", P: 0.9, Epsilon: 0.5},
		{Table: "metrics", Column: "v", Stat: "iqr", Epsilon: 0.5},
		{Table: "metrics", Column: "v", Stat: "mean", Epsilon: 0.5, Unit: "record"},
		{Table: "metrics", Column: "n", Stat: "empirical_mean", Epsilon: 0.5},
		{Table: "metrics", Column: "n", Stat: "empirical_quantile", Tau: 10, Epsilon: 0.5},
		{Table: "metrics", Stat: "count", Epsilon: 0.5},
		{Table: "metrics", Stat: "count", Epsilon: 0.5, Unit: "record"},
	}
	for i, req := range ests {
		var resp EstimateResponse
		if code := c.do("POST", "/v1/tenants/"+id+"/estimate", req, &resp); code != http.StatusOK {
			t.Fatalf("estimate %d: status %d", i, code)
		}
		out = append(out, resp.Value)
	}
	sqls := []string{
		"SELECT AVG(v) FROM metrics",
		"SELECT MEDIAN(v), COUNT(*) FROM metrics GROUP BY grp",
		"SELECT SUM(v) FROM metrics WHERE v < 110",
	}
	for _, q := range sqls {
		var resp QueryResponse
		if code := c.do("POST", "/v1/tenants/"+id+"/query", QueryRequest{SQL: q, Epsilon: 1}, &resp); code != http.StatusOK {
			t.Fatalf("query %q: status %d", q, code)
		}
		for _, row := range resp.Rows {
			out = append(out, row.Values...)
		}
	}
	return out
}

// tenantSpend reads a tenant's native-unit spend.
func tenantSpend(t *testing.T, c *client, id string) float64 {
	t.Helper()
	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/"+id, nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	return st.Spent
}

// TestShardedTenantEquivalence is the acceptance equivalence drill: a
// sharded tenant (N=4) and an unsharded twin on identically-seeded
// servers produce identical per-user aggregates, identical release
// answers, and identical ledger spend — including after a
// snapshot+restart round-trip.
func TestShardedTenantEquivalence(t *testing.T) {
	dir1, dir4 := t.TempDir(), t.TempDir()
	const users = 120
	srv1, c1, stop1 := openDurable(t, dir1, 7)
	srv4, c4, stop4 := openDurable(t, dir4, 7)
	shardSeedTenant(t, c1, "twin", 1, users)
	shardSeedTenant(t, c4, "twin", 4, users)

	// Identical per-user aggregates straight off the storage layer.
	userMeans := func(srv *Server) []float64 {
		tn, ok := srv.Tenant("twin")
		if !ok {
			t.Fatal("no tenant")
		}
		tab, err := tn.DB().TableByName("metrics")
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.NumRows(); got != 2*users {
			t.Fatalf("rows = %d", got)
		}
		m, err := tab.UserMeans("v")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if !reflect.DeepEqual(userMeans(srv1), userMeans(srv4)) {
		t.Fatal("per-user aggregates diverged between N=1 and N=4")
	}

	// Identical release answers and identical spend.
	a1 := shardReleaseSuite(t, c1, "twin")
	a4 := shardReleaseSuite(t, c4, "twin")
	if !reflect.DeepEqual(a1, a4) {
		t.Fatalf("release answers diverged:\nN=1: %v\nN=4: %v", a1, a4)
	}
	s1, s4 := tenantSpend(t, c1, "twin"), tenantSpend(t, c4, "twin")
	if s1 != s4 || s1 <= 0 {
		t.Fatalf("spend diverged: %v vs %v", s1, s4)
	}

	// Snapshot + restart round-trip: compact, crash without Close, boot a
	// fresh pair on the same dirs with matching seeds.
	if err := srv1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv4.Flush(); err != nil {
		t.Fatal(err)
	}
	stop1()
	stop4()
	srv1b, c1b, stop1b := openDurable(t, dir1, 99)
	defer stop1b()
	defer srv1b.Close()
	srv4b, c4b, stop4b := openDurable(t, dir4, 99)
	defer stop4b()
	defer srv4b.Close()

	if got := tenantSpend(t, c1b, "twin"); got != s1 {
		t.Fatalf("N=1 spend not preserved: %v -> %v", s1, got)
	}
	if got := tenantSpend(t, c4b, "twin"); got != s4 {
		t.Fatalf("N=4 spend not preserved: %v -> %v", s4, got)
	}
	if !reflect.DeepEqual(userMeans(srv1b), userMeans(srv4b)) {
		t.Fatal("per-user aggregates diverged after restart")
	}
	b1 := shardReleaseSuite(t, c1b, "twin")
	b4 := shardReleaseSuite(t, c4b, "twin")
	if !reflect.DeepEqual(b1, b4) {
		t.Fatalf("post-restart answers diverged:\nN=1: %v\nN=4: %v", b1, b4)
	}
	if g1, g4 := tenantSpend(t, c1b, "twin"), tenantSpend(t, c4b, "twin"); g1 != g4 {
		t.Fatalf("post-restart spend diverged: %v vs %v", g1, g4)
	}
}

// TestShardConcurrentIngestReleaseFlush races multi-shard ingestion,
// fan-out releases, and snapshot compaction on one durable sharded
// tenant (run under -race in CI), then crashes without Close and asserts
// the recovered spend covers every answered release.
func TestShardConcurrentIngestReleaseFlush(t *testing.T) {
	dir := t.TempDir()
	srvA, cA, stopA := openDurable(t, dir, 8)
	if code := cA.do("POST", "/v1/tenants", CreateTenantRequest{ID: "acme", Epsilon: 1e6, Shards: 4}, nil); code != http.StatusCreated {
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
		batches   = 15
		releasers = 3
		releases  = 12
		eps       = 0.01
	)
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := [][]any{
					{fmt.Sprintf("u%d-%d", g, b), float64(b)},
					{fmt.Sprintf("w%d-%d", b, g), float64(g)},
				}
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
				var code int
				if i%3 == 0 {
					code = cA.do("POST", "/v1/tenants/acme/query", QueryRequest{
						SQL: fmt.Sprintf("SELECT AVG(v) FROM m WHERE v < %d", 1000+g*100+i), Epsilon: eps,
					}, nil)
				} else {
					p := 0.01 + 0.9*float64(g*releases+i)/float64(releasers*releases)
					code = cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
						Table: "m", Column: "v", Stat: "quantile", P: p, Epsilon: eps,
					}, nil)
				}
				if code == http.StatusOK {
					okReleases[g]++
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if err := srvA.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	answered := 0
	for _, n := range okReleases {
		answered += n
	}
	stopA() // crash without Close

	srvB, cB, stopB := openDurable(t, dir, 9)
	defer stopB()
	defer srvB.Close()
	var after TenantStatus
	if code := cB.do("GET", "/v1/tenants/acme", nil, &after); code != http.StatusOK {
		t.Fatal("recovered status")
	}
	if after.Shards != 4 {
		t.Fatalf("recovered shards = %d", after.Shards)
	}
	minSpend := eps * float64(answered)
	if after.Spent < minSpend*(1-1e-9) {
		t.Fatalf("recovered spend %v < %v (%d answered releases) — a deduction was lost",
			after.Spent, minSpend, answered)
	}
}

// TestShardWALReplayPreservesRowOrder: a WAL-tail-only recovery (no
// snapshot) must rebuild the table in the exact pre-crash insertion
// order, not shard-major order — insertBatch logs each batch as one
// record in arrival order, so replaying the records back to back
// reproduces the interleaving record-unit releases depend on.
func TestShardWALReplayPreservesRowOrder(t *testing.T) {
	dir := t.TempDir()
	srvA, cA, stopA := openDurable(t, dir, 11)
	shardSeedTenant(t, cA, "acme", 4, 60) // interleaved users across shards
	colFloats := func(srv *Server) []float64 {
		tn, ok := srv.Tenant("acme")
		if !ok {
			t.Fatal("no tenant")
		}
		tab, err := tn.DB().TableByName("metrics")
		if err != nil {
			t.Fatal(err)
		}
		xs, err := tab.ColumnFloats("v")
		if err != nil {
			t.Fatal(err)
		}
		return xs
	}
	before := colFloats(srvA)
	// One release fsyncs the WAL (hardening the buffered row records);
	// crash WITHOUT flush so recovery replays the tail, never a snapshot.
	if code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 0.5,
	}, nil); code != http.StatusOK {
		t.Fatal("release")
	}
	stopA()

	srvB, _, stopB := openDurable(t, dir, 12)
	defer stopB()
	defer srvB.Close()
	if !reflect.DeepEqual(before, colFloats(srvB)) {
		t.Fatal("WAL-tail replay changed the global insertion order")
	}
}

// TestShardTornTailRecovery tears the buffered tail of a sharded
// tenant's WAL (a crash mid-append of a rows record, here one in the old
// shard-tagged encoding) and asserts recovery never loses a deduction.
func TestShardTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	_, cA, stopA := openDurable(t, dir, 4)
	shardSeedTenant(t, cA, "acme", 4, 40)
	const eps = 0.25
	answers := 0
	for i := 0; i < 6; i++ {
		p := 0.05 + 0.15*float64(i)
		if code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: eps,
		}, nil); code == http.StatusOK {
			answers++
		}
	}
	// More ingestion after the releases: buffered rows records past the
	// last fsynced deduction.
	cA.do("POST", "/v1/tenants/acme/tables/metrics/rows", InsertRowsRequest{
		Rows: [][]any{{"zz1", 1.0, 2.0, "a"}, {"zz2", 3.0, 4.0, "b"}},
	}, nil)
	stopA() // crash without Close: the row records may never be flushed

	// Tear the tail further: a half-written, old-format shard-tagged
	// record.
	wal := filepath.Join(dir, "acme", "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`00000000 {"seq":9999,"type":"rows","rows_table":"metrics","shard":3,"rows":[[{"k":2,"s":"half`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srvB, cB, stopB := openDurable(t, dir, 5)
	defer stopB()
	defer srvB.Close()
	var after TenantStatus
	if code := cB.do("GET", "/v1/tenants/acme", nil, &after); code != http.StatusOK {
		t.Fatal("recovered status")
	}
	want := eps * float64(answers)
	if after.Spent < want*(1-1e-9) {
		t.Fatalf("torn shard-tagged tail lost a deduction: spend %v < %v", after.Spent, want)
	}
}

// TestPR3DataDirBootsSharded is the backward-compatibility acceptance
// check: a data directory written in the pre-shard record format (no
// shards in the tenant config, untagged rows records — exactly the bytes
// PR 3 produced, since zero-valued shard fields are omitted) must boot
// under the sharded build as a single-shard tenant with its spend
// preserved and keep serving ingests and releases.
func TestPR3DataDirBootsSharded(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := st.CreateTenant("legacy", store.TenantConfig{Epsilon: 4, Accounting: "pure"})
	if err != nil {
		t.Fatal(err)
	}
	schema := dpsql.TableState{
		Name:    "events",
		Columns: []dpsql.Column{{Name: "uid", Kind: dpsql.KindString}, {Name: "v", Kind: dpsql.KindFloat}},
		UserCol: "uid",
	}
	if err := tl.AppendTable(schema); err != nil {
		t.Fatal(err)
	}
	rows := make([][]dpsql.Value, 0, 24)
	for u := 0; u < 8; u++ {
		for r := 0; r < 3; r++ {
			rows = append(rows, []dpsql.Value{dpsql.Str(fmt.Sprintf("u%d", u)), dpsql.Float(float64(10*u + r))})
		}
	}
	if err := tl.AppendRows("events", 0, rows); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// That format recorded each deduction as its own fsynced "deduct"
	// record (seq 4, after create, table and rows); the store no longer
	// writes one, so the record is appended as the bytes it wrote.
	f, err := os.OpenFile(filepath.Join(dir, "legacy", "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("c3230104 {\"seq\":4,\"type\":\"deduct\",\"cost\":{\"eps\":1.5}}\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv, c, stop := openDurable(t, dir, 3)
	defer stop()
	defer srv.Close()
	var status TenantStatus
	if code := c.do("GET", "/v1/tenants/legacy", nil, &status); code != http.StatusOK {
		t.Fatal("recovered status")
	}
	if status.Spent < 1.5 {
		t.Fatalf("legacy spend not preserved: %v", status.Spent)
	}
	if status.Shards != 1 {
		t.Fatalf("legacy tenant shards = %d, want 1", status.Shards)
	}
	tn, _ := srv.Tenant("legacy")
	tab, err := tn.DB().TableByName("events")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumShards() != 1 || tab.NumRows() != len(rows) {
		t.Fatalf("legacy table: shards=%d rows=%d", tab.NumShards(), tab.NumRows())
	}
	// The tenant keeps working: ingest, release, and a flushed snapshot
	// round-trips under the new format.
	if code := c.do("POST", "/v1/tenants/legacy/tables/events/rows", InsertRowsRequest{
		Rows: [][]any{{"u9", 99.0}},
	}, nil); code != http.StatusOK {
		t.Fatal("ingest into legacy tenant")
	}
	var est EstimateResponse
	if code := c.do("POST", "/v1/tenants/legacy/estimate", EstimateRequest{
		Table: "events", Column: "v", Stat: "median", Epsilon: 0.5,
	}, &est); code != http.StatusOK {
		t.Fatal("release on legacy tenant")
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
}
