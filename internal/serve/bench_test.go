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
// the steady state: the log is filled to one record past memAuditMax
// before the timer starts, so it has already grown and trimmed once, and
// every timed append finds it at the cap, where Append copies the whole
// retention window. (Filled to exactly memAuditMax, the first timed
// append would find spare capacity and copy nothing.) A ring buffer
// would make it O(1).
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
	for range memAuditMax + 1 {
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

// BenchmarkRelease prices one charged release through the handler layer
// (no network) on every release endpoint, on an in-memory and a durable
// tenant: decode, cache miss, worker, scan, charge, mechanism, audit and
// encode. Each iteration sends a distinct request (ε moves by 1e-9), so
// none replays from the cache. fsyncs/op counts the WAL barriers a
// durable release pays: one, shared by its deduction and its audit
// record.
func BenchmarkRelease(b *testing.B) {
	bodies := []struct{ path, body string }{
		{"query", `{"sql":"SELECT AVG(v) FROM metrics","epsilon":%g}`},
		{"estimate", `{"table":"metrics","column":"v","stat":"quantile","p":0.5,"epsilon":%g}`},
		{"histogram", `{"table":"metrics","group_by":"grp","epsilon":%g}`},
	}
	for _, r := range bodies {
		for _, durable := range []bool{false, true} {
			name := r.path + "/mem"
			if durable {
				name = r.path + "/durable"
			}
			b.Run(name, func(b *testing.B) {
				opts := Options{Seed: 7, Workers: 2}
				if durable {
					opts.DataDir = b.TempDir()
				}
				benchRelease(b, opts, r.path, r.body)
			})
		}
	}
}

func benchRelease(b *testing.B, opts Options, path, body string) {
	srv, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	t, err := srv.CreateTenant("acme", 1e9)
	if err != nil {
		b.Fatal(err)
	}
	err = srv.CreateTable(t, CreateTableRequest{
		Name: "metrics",
		Columns: []ColumnSpec{
			{Name: "uid", Kind: "string"},
			{Name: "v", Kind: "float"},
			{Name: "grp", Kind: "string"},
		},
		UserColumn: "uid",
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	rows := make([][]any, 4000)
	for i := range rows {
		u := i % 1000
		rows[i] = []any{fmt.Sprintf("u%04d", u), 100 + 5*rng.Gaussian(), fmt.Sprintf("g%d", u%4)}
	}
	if _, err := srv.InsertRows(t, "metrics", rows); err != nil {
		b.Fatal(err)
	}
	url := "/v1/tenants/acme/" + path
	fsyncs := srv.metrics.storeMet.FsyncSeconds
	before := fsyncs.Count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", url, strings.NewReader(fmt.Sprintf(body, 0.5+float64(i)*1e-9))))
		if w.Code != http.StatusOK {
			b.Fatalf("release %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	b.StopTimer()
	if opts.DataDir != "" {
		b.ReportMetric(float64(fsyncs.Count()-before)/float64(b.N), "fsyncs/op")
	}
}
