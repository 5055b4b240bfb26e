// Multi-tenant DP query service, driven over HTTP: start an in-process
// updp-serve instance, provision two tenants with their own data and ε
// budgets, release statistics concurrently from both, and watch the
// per-tenant ledger refuse the release that would overdraw. The second
// act compares composition backends: a zCDP tenant survives a release
// volume that exhausts its pure-ε twin holding the same nominal (ε, δ)
// budget, because ρ-accounting charges each small ε-release only ε²/2.
// The third act creates an "accounting": "rdp" tenant — Rényi accounting
// over a grid of orders — and reads back its native per-order spend.
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"sync"

	"repro/internal/serve"
	"repro/internal/xrand"
)

func main() {
	// An in-process server on a loopback port; in production this is
	// `updp-serve -addr :8500` and clients speak plain HTTP+JSON.
	srv, err := serve.Open(serve.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving at %s\n\n", base)

	// Two tenants: a hospital with a tight budget and a retailer with a
	// loose one. Each gets its own table; nothing is shared.
	mustPost(base, "/v1/tenants", serve.CreateTenantRequest{ID: "hospital", Epsilon: 2.0})
	mustPost(base, "/v1/tenants", serve.CreateTenantRequest{ID: "retailer", Epsilon: 50.0})
	for _, tenant := range []string{"hospital", "retailer"} {
		mustPost(base, "/v1/tenants/"+tenant+"/tables", serve.CreateTableRequest{
			Name: "records",
			Columns: []serve.ColumnSpec{
				{Name: "uid", Kind: "string"},
				{Name: "value", Kind: "float"},
			},
			UserColumn: "uid",
		})
	}

	// Ingest: lengths of stay for the hospital (lognormal, days), basket
	// totals for the retailer (heavier tail). No range hints anywhere —
	// the universal estimators do not need them.
	rng := xrand.New(7)
	for _, load := range []struct {
		tenant string
		gen    func() float64
	}{
		{"hospital", func() float64 { return math.Exp(1.2 + 0.5*rng.Gaussian()) }},
		{"retailer", func() float64 { return math.Exp(3.5 + 1.1*rng.Gaussian()) }},
	} {
		rows := make([][]any, 0, 4000)
		for u := 0; u < 2000; u++ {
			uid := fmt.Sprintf("u%04d", u)
			rows = append(rows, []any{uid, load.gen()}, []any{uid, load.gen()})
		}
		mustPost(base, "/v1/tenants/"+load.tenant+"/tables/records/rows",
			serve.InsertRowsRequest{Rows: rows})
	}

	// Concurrent mixed traffic: estimator calls and SQL against both
	// tenants at once — the server runs them through its worker pool while
	// each tenant's accountant tracks its own spend.
	var wg sync.WaitGroup
	release := func(tenant, label, path string, body any) {
		defer wg.Done()
		code, reply := post(base, path, body)
		if code == http.StatusOK {
			fmt.Printf("%-9s %-28s -> %s\n", tenant, label, reply)
		} else {
			fmt.Printf("%-9s %-28s -> HTTP %d %s\n", tenant, label, code, reply)
		}
	}
	wg.Add(4)
	go release("hospital", "median stay (eps=0.5)", "/v1/tenants/hospital/estimate",
		serve.EstimateRequest{Table: "records", Column: "value", Stat: "median", Epsilon: 0.5})
	go release("hospital", "iqr of stay (eps=0.5)", "/v1/tenants/hospital/estimate",
		serve.EstimateRequest{Table: "records", Column: "value", Stat: "iqr", Epsilon: 0.5})
	go release("retailer", "SELECT AVG(value) (eps=1)", "/v1/tenants/retailer/query",
		serve.QueryRequest{SQL: "SELECT AVG(value) FROM records", Epsilon: 1})
	go release("retailer", "p90 basket (eps=1)", "/v1/tenants/retailer/estimate",
		serve.EstimateRequest{Table: "records", Column: "value", Stat: "quantile", P: 0.9, Epsilon: 1})
	wg.Wait()

	// The hospital has spent 1.0 of its 2.0 budget. A 1.5-ε release must
	// be refused outright — and the refusal itself releases nothing.
	fmt.Println()
	code, reply := post(base, "/v1/tenants/hospital/estimate",
		serve.EstimateRequest{Table: "records", Column: "value", Stat: "mean", Epsilon: 1.5})
	fmt.Printf("hospital  mean at eps=1.5           -> HTTP %d (%s)\n", code, reply)

	for _, tenant := range []string{"hospital", "retailer"} {
		var st serve.TenantStatus
		get(base, "/v1/tenants/"+tenant, &st)
		fmt.Printf("%-9s budget: total %.1f, spent %.1f, remaining %.1f (refusals: %d)\n",
			tenant, st.Total, st.Spent, st.Remaining, st.Refusals)
	}

	// Act two — composition backends. Twin tenants with the same nominal
	// budget (ε = 0.2, δ = 1e-6): "pure-twin" composes basic (each
	// release at ε₀ costs ε₀), "zcdp-twin" accounts in zCDP ρ (the same
	// release costs ε₀²/2). Under a dashboard-style stream of small
	// distinct releases, basic composition dies at ε/ε₀ = 100 releases;
	// the zCDP twin is still answering when the stream ends.
	fmt.Println("\n--- composition backends: pure-eps twin vs zCDP twin (same nominal budget) ---")
	mustPost(base, "/v1/tenants", serve.CreateTenantRequest{ID: "pure-twin", Epsilon: 0.2})
	mustPost(base, "/v1/tenants", serve.CreateTenantRequest{ID: "zcdp-twin", Epsilon: 0.2, Accounting: "zcdp"})
	for _, tenant := range []string{"pure-twin", "zcdp-twin"} {
		mustPost(base, "/v1/tenants/"+tenant+"/tables", serve.CreateTableRequest{
			Name:       "records",
			Columns:    []serve.ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "value", Kind: "float"}},
			UserColumn: "uid",
		})
		rows := make([][]any, 0, 1000)
		for u := 0; u < 1000; u++ {
			rows = append(rows, []any{fmt.Sprintf("u%04d", u), math.Exp(2 + 0.8*rng.Gaussian())})
		}
		mustPost(base, "/v1/tenants/"+tenant+"/tables/records/rows", serve.InsertRowsRequest{Rows: rows})
	}
	const (
		releases   = 150   // volume that exhausts the pure twin at 100
		releaseEps = 0.002 // small per-release budget, the zCDP sweet spot
	)
	for _, tenant := range []string{"pure-twin", "zcdp-twin"} {
		survived, refusedAt := 0, -1
		for i := 0; i < releases; i++ {
			// Distinct quantile ranks: identical requests would be free
			// cache replays and exhaust nothing.
			p := 0.01 + 0.98*float64(i)/releases
			code, _ := post(base, "/v1/tenants/"+tenant+"/estimate", serve.EstimateRequest{
				Table: "records", Column: "value", Stat: "quantile", P: p, Epsilon: releaseEps,
			})
			switch code {
			case http.StatusOK:
				survived++
			case http.StatusTooManyRequests:
				if refusedAt < 0 {
					refusedAt = i
				}
			}
		}
		var st serve.TenantStatus
		get(base, "/v1/tenants/"+tenant, &st)
		if refusedAt >= 0 {
			fmt.Printf("%-9s (%s) exhausted after %d of %d releases — spent %.4g %s of %.4g\n",
				tenant, st.Accounting, refusedAt, releases, st.Spent, st.Unit, st.Total)
		} else {
			fmt.Printf("%-9s (%s) survived all %d releases — spent %.4g %s of %.4g (≈ ε %.3f of %.1f at δ=%.0e)\n",
				tenant, st.Accounting, releases, st.Spent, st.Unit, st.Total,
				st.SpentEpsilon, st.TotalEpsilon, st.Delta)
		}
	}

	// Act three — Rényi accounting. An "rdp" tenant accounts at a whole
	// grid of Rényi orders α at once: every release contributes its full
	// RDP curve ε(α) — a Laplace release via the tight pure-DP→RDP bound
	// (strictly below the ε²/2·α line zCDP uses), a native Gaussian count
	// via ρα — and the per-order spends simply add. The budget is
	// enforced on the best conversion over the grid, so rdp is never
	// looser than zcdp and wins outright on mixed Laplace+Gaussian
	// traffic.
	fmt.Println("\n--- Rényi accounting: an \"rdp\" tenant and its per-order spend ---")
	mustPost(base, "/v1/tenants", serve.CreateTenantRequest{
		ID: "rdp-twin", Epsilon: 2.0, Accounting: "rdp",
		// A compact grid keeps the readout short; omit "orders" for the
		// default α ∈ [1.25, 64]. Small ε at small δ needs larger orders —
		// see docs/ACCOUNTING.md.
		Orders: []float64{2, 4, 8, 16, 32, 64},
	})
	mustPost(base, "/v1/tenants/rdp-twin/tables", serve.CreateTableRequest{
		Name:       "records",
		Columns:    []serve.ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "value", Kind: "float"}},
		UserColumn: "uid",
	})
	rows := make([][]any, 0, 1000)
	for u := 0; u < 1000; u++ {
		rows = append(rows, []any{fmt.Sprintf("u%04d", u), math.Exp(2 + 0.8*rng.Gaussian())})
	}
	mustPost(base, "/v1/tenants/rdp-twin/tables/records/rows", serve.InsertRowsRequest{Rows: rows})
	// A mixed pair: a Laplace median (charged in ε) and a natively-ρ
	// Gaussian count (which a pure tenant would refuse outright).
	mustPost(base, "/v1/tenants/rdp-twin/estimate",
		serve.EstimateRequest{Table: "records", Column: "value", Stat: "median", Epsilon: 0.2})
	mustPost(base, "/v1/tenants/rdp-twin/estimate",
		serve.EstimateRequest{Table: "records", Stat: "count", Rho: 0.005})
	var st serve.TenantStatus
	get(base, "/v1/tenants/rdp-twin", &st)
	// Reading the per-order spend: spent_rdp[i] is the cumulative RDP
	// spend at orders[i] — here PureRDP(α, 0.2) from the median plus
	// 0.005·α from the count. Each order converts to (ε, δ)-DP as
	// spent(α) + ln(1/δ)/(α−1); small α pays a huge ln(1/δ) surcharge,
	// huge α pays linearly for every Gaussian — best_order is the interior
	// sweet spot the scalar "spent" figure comes from, and it drifts as
	// the workload mix shifts.
	fmt.Printf("rdp-twin  budget: nominal ε %.1f at δ=%.0e, spent ε %.4f (certified at α=%g)\n",
		st.TotalEpsilon, st.Delta, st.SpentEpsilon, st.BestOrder)
	fmt.Printf("          per-order spend ε(α), composed by addition:\n")
	for i, a := range st.Orders {
		fmt.Printf("            α=%-4g rdp spend %.6f -> (ε, δ) reading %.4f\n",
			a, st.SpentRDP[i], st.SpentRDP[i]+math.Log(1/st.Delta)/(a-1))
	}
}

func post(base, path string, body any) (int, string) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, string(bytes.TrimSpace(buf.Bytes()))
}

func mustPost(base, path string, body any) {
	if code, reply := post(base, path, body); code >= 300 {
		log.Fatalf("POST %s: HTTP %d %s", path, code, reply)
	}
}

func get(base, path string, out any) {
	resp, err := http.Get(base + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
