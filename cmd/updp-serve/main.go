// Command updp-serve runs the concurrent multi-tenant DP query service:
// an HTTP+JSON API over the repository's universal private estimators and
// the user-level-DP SQL engine, with per-tenant ε-budget enforcement.
//
//	updp-serve -addr :8500
//	updp-serve -addr :8500 -workers 8 -demo
//	updp-serve -demo -accounting zcdp -delta 1e-6
//	updp-serve -demo -accounting rdp        # Rényi accounting (default order grid)
//	updp-serve -demo -accounting rdp -orders 2,4,8,16,32,64
//	updp-serve -demo -window 3600           # budget refills hourly
//	updp-serve -shards 8                    # tenants default to 8-way sharded tables
//	updp-serve -metrics-addr :9090          # Prometheus scrape on its own listener
//	updp-serve -debug-addr 127.0.0.1:6060   # pprof on an explicit private listener
//
// GET /metrics (Prometheus text format) is always mounted on the API
// listener; -metrics-addr additionally serves it on a dedicated address
// so a scraper needs no access to the query API. -debug-addr exposes
// net/http/pprof on its own mux — bind it to localhost; it is never
// mounted on the API listener. docs/OBSERVABILITY.md catalogs the
// metrics, the per-release trace stages, and the DP audit log.
//
// -shards sets the default table shard count for new tenants: tables are
// hash-partitioned by user id so ingestion stripes across per-shard locks
// and release scans fan out over the worker pool — a pure storage
// topology, invisible to answers, noise, and budget (a request may still
// name its own "shards" at tenant creation).
//
// With -demo a tenant "demo" (ε = 16) is preloaded with a synthetic
// salaries table so the API can be explored immediately; -accounting,
// -delta, -orders, and -window configure the demo tenant's composition
// backend (pure-ε basic composition, zCDP ρ-accounting, Rényi/RDP
// accounting over an order grid, optional renewable window — see
// docs/ACCOUNTING.md for choosing one):
//
//	curl -s localhost:8500/v1/tenants/demo
//	curl -s -X POST localhost:8500/v1/tenants/demo/estimate \
//	     -d '{"table":"salaries","column":"salary","stat":"median","epsilon":0.5}'
//	curl -s -X POST localhost:8500/v1/tenants/demo/query \
//	     -d '{"sql":"SELECT AVG(salary) FROM salaries GROUP BY dept","epsilon":1}'
//
// See internal/serve for the endpoint reference and the budget model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/xrand"
)

func main() {
	var (
		addr       = flag.String("addr", ":8500", "listen address")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seed       = flag.Uint64("seed", 0, "RNG seed; 0 uses OS entropy (required for real privacy)")
		dataDir    = flag.String("data-dir", "", "durable tenant state directory (WAL + snapshots); empty = in-memory only")
		shards     = flag.Int("shards", 0, "default table shard count for new tenants (hash-partitioned by user id; 0 = 1, monolithic)")
		demo       = flag.Bool("demo", false, "preload a demo tenant with synthetic salaries")
		accounting = flag.String("accounting", "pure", `demo tenant composition backend: "pure", "zcdp", or "rdp"`)
		delta      = flag.Float64("delta", 0, "demo tenant delta for zcdp/rdp accounting (0 = server default 1e-6)")
		orders     = flag.String("orders", "", "demo tenant Rényi order grid for rdp accounting, comma-separated (empty = default grid)")
		window     = flag.Float64("window", 0, "demo tenant budget refill window in seconds (0 = lifetime budget)")

		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics on a dedicated listener too (always on the API listener); empty = API listener only")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (bind to localhost); empty = disabled")

		traceRing   = flag.Int("trace-ring", 0, "flight-recorder capacity: retain the last N release traces plus up to N slow/errored/shed ones at GET /v1/traces (0 = 256, negative disables)")
		exemplars   = flag.Bool("exemplars", false, "render OpenMetrics exemplars on /metrics histograms (most recent release id per bucket)")
		sloLatency  = flag.Duration("slo-latency", 0, "arm the self-watchdog: capture an incident bundle when release p99 exceeds this for -slo-windows consecutive windows (0 = disabled; requires -incident-dir)")
		sloWindow   = flag.Duration("slo-window", 0, "watchdog latency aggregation window (0 = 10s)")
		sloWindows  = flag.Int("slo-windows", 0, "consecutive breaching windows before a capture (0 = 2)")
		incidentDir = flag.String("incident-dir", "", "directory receiving watchdog incident bundles (profiles + metrics + traces)")
		incidentGap = flag.Duration("incident-cooldown", 0, "minimum gap between incident captures (0 = 10m)")
	)
	flag.Parse()

	orderGrid, err := parseOrders(*orders)
	if err != nil {
		log.Fatalf("updp-serve: %v", err)
	}
	if *sloLatency > 0 && *incidentDir == "" {
		log.Print("updp-serve: -slo-latency set without -incident-dir; watchdog disarmed")
	}

	srv, err := serve.Open(serve.Options{
		Workers:          *workers,
		Seed:             *seed,
		DataDir:          *dataDir,
		DefaultShards:    *shards,
		TraceRing:        *traceRing,
		Exemplars:        *exemplars,
		SLOLatency:       *sloLatency,
		SLOWindow:        *sloWindow,
		SLOWindows:       *sloWindows,
		IncidentDir:      *incidentDir,
		IncidentCooldown: *incidentGap,
	})
	if err != nil {
		log.Fatalf("updp-serve: %v", err)
	}
	defer func() {
		// Close compacts every durable tenant into a final snapshot, so
		// the next boot replays a snapshot instead of a long WAL.
		if err := srv.Close(); err != nil {
			log.Printf("updp-serve: close: %v", err)
		}
	}()
	if *dataDir != "" {
		log.Printf("durable store at %s", *dataDir)
	}
	if *demo {
		msg, err := bootDemo(srv, serve.CreateTenantRequest{
			ID:            "demo",
			Epsilon:       16,
			Accounting:    *accounting,
			Delta:         *delta,
			WindowSeconds: *window,
			Orders:        orderGrid,
		})
		if err != nil {
			log.Fatalf("updp-serve: %v", err)
		}
		log.Print(msg)
	}

	if *metricsAddr != "" {
		mm := http.NewServeMux()
		mm.Handle("GET /metrics", srv.MetricsHandler())
		ms := &http.Server{Addr: *metricsAddr, Handler: mm, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("metrics on %s/metrics", *metricsAddr)
			if err := ms.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("updp-serve: metrics listener: %v", err)
			}
		}()
	}
	if *debugAddr != "" {
		// pprof goes on its OWN mux — registering on the default mux (the
		// net/http/pprof init side effect) would expose it to anything that
		// ever serves http.DefaultServeMux.
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds := &http.Server{Addr: *debugAddr, Handler: dm, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("pprof on %s/debug/pprof/", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("updp-serve: debug listener: %v", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		log.Printf("updp-serve listening on %s (workers=%d)", *addr, srv.Workers())
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("updp-serve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("updp-serve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("updp-serve: shutdown: %v", err)
	}
}

// parseOrders decodes the -orders flag: a comma-separated Rényi order
// grid ("2,4,8,16"), empty meaning the server-side default grid.
func parseOrders(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("-orders: %q is not a number", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// bootDemo provisions the demo tenant: created from req unless a data
// dir recovered it, and its salaries table loaded unless that recovered
// too. Table and rows go through the server's logged path, so on a
// durable server they, and every row ingested later, survive restarts.
// It returns the line to log.
func bootDemo(srv *serve.Server, req serve.CreateTenantRequest) (string, error) {
	tn, recovered := srv.Tenant(req.ID)
	if !recovered {
		var err error
		if tn, err = srv.CreateTenantWith(req); err != nil {
			return "", fmt.Errorf("demo tenant: %w", err)
		}
	}
	tab, tabErr := tn.DB().TableByName("salaries")
	if recovered && tabErr == nil && tab.NumRows() > 0 {
		// Fully recovered — reloading would double the data and a fresh
		// ledger would void the recovered spend.
		return "demo tenant recovered from data dir (spend preserved)", nil
	}
	// Fresh tenant, or one recovered without its data: a crash landed
	// before the table's synced DDL record, or between it and the
	// hardening of its buffered rows record. Load what is missing; the
	// recovered ledger keeps whatever it spent.
	if tabErr != nil {
		if err := srv.CreateTable(tn, serve.CreateTableRequest{
			Name: "salaries",
			Columns: []serve.ColumnSpec{
				{Name: "user_id", Kind: "string"},
				{Name: "dept", Kind: "string"},
				{Name: "salary", Kind: "float"},
			},
			UserColumn: "user_id",
		}); err != nil {
			return "", fmt.Errorf("demo table: %w", err)
		}
	}
	if _, err := srv.InsertRows(tn, "salaries", demoRows()); err != nil {
		return "", fmt.Errorf("demo data: %w", err)
	}
	if recovered {
		// The durable config wins over the flags, so report it instead of
		// what was typed.
		return "demo tenant data reloaded (recovered config and spend preserved; -accounting/-delta/-window flags ignored)", nil
	}
	return fmt.Sprintf("demo tenant ready: tenant=demo table=salaries budget eps=16 accounting=%s window=%gs",
		req.Accounting, req.WindowSeconds), nil
}

// demoRows is the demo's lognormal salaries table — heavy-tailed data
// with no natural clipping bound, i.e. exactly the regime the universal
// estimators exist for — as wire rows (user_id, dept, salary).
func demoRows() [][]any {
	rng := xrand.New(7)
	depts := []string{"eng", "sales", "ops"}
	rows := make([][]any, 5000)
	for u := range rows {
		// LogNormal(11, 0.5): median e^11 ≈ 59.9k, heavy right tail.
		salary := math.Exp(11 + 0.5*rng.Gaussian())
		rows[u] = []any{fmt.Sprintf("u%05d", u), depts[u%len(depts)], salary}
	}
	return rows
}
