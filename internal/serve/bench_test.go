package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dp"
	"repro/internal/store"
	"repro/internal/xrand"
)

// BenchmarkMemAuditAppend prices an in-memory tenant's audit append in
// the steady state: the log is filled to memAuditMax before the timer
// starts, so every timed append is past the cap, where Append copies the
// whole retention window. A ring buffer would make it O(1).
func BenchmarkMemAuditAppend(b *testing.B) {
	a := &memAudit{}
	rec := store.AuditRecord{
		ReleaseID: "bench",
		Path:      "estimate",
		Mechanism: "median",
		Cost:      dp.EpsCost(0.1),
		Unit:      "epsilon",
		TimeUnix:  1,
	}
	for range memAuditMax {
		r := rec
		if err := a.Append(&r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rec
		if err := a.Append(&r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableRelease prices one charged quantile release on a
// durable tenant through the handler (no network), each iteration a
// distinct request so none replays from the cache. fsyncs/op counts the
// WAL barriers a release pays: one, shared by its deduction and its
// audit record.
func BenchmarkDurableRelease(b *testing.B) {
	srv, err := Open(Options{Seed: 7, Workers: 2, DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	t, err := srv.CreateTenant("acme", 1e9)
	if err != nil {
		b.Fatal(err)
	}
	err = srv.CreateTable(t, CreateTableRequest{
		Name:       "metrics",
		Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}},
		UserColumn: "uid",
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	rows := make([][]any, 4000)
	for i := range rows {
		rows[i] = []any{fmt.Sprintf("u%04d", i%1000), 100 + 5*rng.Gaussian()}
	}
	if _, err := srv.InsertRows(t, "metrics", rows); err != nil {
		b.Fatal(err)
	}
	fsyncs := srv.metrics.storeMet.FsyncSeconds
	before := fsyncs.Count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"table":"metrics","column":"v","stat":"quantile","p":0.5,"epsilon":%g}`, 0.5+float64(i)*1e-9)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/tenants/acme/estimate", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("release %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fsyncs.Count()-before)/float64(b.N), "fsyncs/op")
}
