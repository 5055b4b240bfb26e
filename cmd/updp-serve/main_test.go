package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dpsql"
	"repro/internal/serve"
)

var demoReq = serve.CreateTenantRequest{ID: "demo", Epsilon: 16}

func openDemoDir(t *testing.T, dir string) *serve.Server {
	t.Helper()
	srv, err := serve.Open(serve.Options{DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// salaries returns the demo table's rows.
func salaries(t *testing.T, srv *serve.Server) [][]dpsql.Value {
	t.Helper()
	tn, ok := srv.Tenant("demo")
	if !ok {
		t.Fatal("demo tenant missing")
	}
	tab, err := tn.DB().TableByName("salaries")
	if err != nil {
		t.Fatal(err)
	}
	return tab.Export().Rows
}

// A -demo boot on a data dir logs its table and rows, so a row ingested
// over HTTP survives a restart, and the restart recovers the demo data
// instead of loading it again.
func TestDemoDataDirKeepsIngestedRows(t *testing.T) {
	dir := t.TempDir()
	srv := openDemoDir(t, dir)
	msg, err := bootDemo(srv, demoReq)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(msg, "demo tenant ready") {
		t.Fatalf("first boot: %q", msg)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants/demo/tables/salaries/rows",
		strings.NewReader(`{"rows":[["late","eng",12345]]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv = openDemoDir(t, dir)
	defer srv.Close()
	if msg, err = bootDemo(srv, demoReq); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(msg, "demo tenant recovered") {
		t.Fatalf("restart: %q", msg)
	}
	rows := salaries(t, srv)
	if len(rows) != 5001 {
		t.Fatalf("restart recovered %d rows, want 5001", len(rows))
	}
	found := false
	for _, r := range rows {
		found = found || r[0] == dpsql.Str("late")
	}
	if !found {
		t.Fatal("the row ingested over HTTP was lost across the restart")
	}
}

// A tenant that recovered its table but not the table's rows (a crash
// before the buffered rows record hardened) gets its rows loaded again.
func TestDemoReloadsRowsOfEmptyRecoveredTable(t *testing.T) {
	dir := t.TempDir()
	srv := openDemoDir(t, dir)
	tn, err := srv.CreateTenantWith(demoReq)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateTable(tn, serve.CreateTableRequest{
		Name:       "salaries",
		Columns:    []serve.ColumnSpec{{Name: "user_id", Kind: "string"}, {Name: "dept", Kind: "string"}, {Name: "salary", Kind: "float"}},
		UserColumn: "user_id",
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv = openDemoDir(t, dir)
	defer srv.Close()
	msg, err := bootDemo(srv, demoReq)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(msg, "demo tenant data reloaded") {
		t.Fatalf("restart: %q", msg)
	}
	if n := len(salaries(t, srv)); n != 5000 {
		t.Fatalf("reloaded %d rows, want 5000", n)
	}
}
