package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/serve"
)

// config sizes one run. fullConfig gives the benchmark's sizes; tests
// shrink them.
type config struct {
	wl     workload
	seed   uint64
	window time.Duration
	dir    string // data directories and span files go here
	nproc  int

	setups      int // set-ups per untraced run; setup_s is the median of those no hypervisor stole from
	warmCharged int // cheap charged releases sent before timing
	warmStream  int // workload releases each client sends before timing
	minTail     int // samples a p99 needs: 10 beyond it

	// Traced-run sizes: sampled requests replayed layer by layer,
	// repetitions of each call in the layer sweeps, and calls per chunk
	// in the nanosecond-scale loops.
	replayN, reps, loops int
}

// memAuditMax is the serve layer's in-memory audit retention cap
// (internal/serve/audit.go). Per-release audit cost changes once a
// tenant passes it, so timing starts past it.
const memAuditMax = 4096

func fullConfig(wl workload, seed uint64, window time.Duration, dir string) config {
	return config{
		wl: wl, seed: seed, window: window, dir: dir, nproc: runtime.NumCPU(),
		setups:      7,
		warmCharged: memAuditMax + 100,
		warmStream:  200,
		minTail:     1000,
		replayN:     200,
		reps:        40,
		loops:       20000,
	}
}

// runOutput is one run's metrics and failures, before they become the
// result line.
type runOutput struct {
	metrics     map[string]float64
	attempted   int
	failed      int
	errs        []error
	releases    int     // answered releases in the timed window (the latency sample count)
	ingests     int     // answered row batches in the timed window
	steal       float64 // share of the machine's CPU time a hypervisor stole during the window
	slices      int     // slices of the window
	cleanSlices int     // of those, the ones the metrics come from
	tr          *tracer
}

func (o *runOutput) add(t tally) {
	o.attempted += t.attempted
	o.failed += t.failed
	o.errs = append(o.errs, t.errs...)
}

// failCheck counts one failed end-of-run check.
func (o *runOutput) failCheck(err error) {
	o.attempted++
	o.failed++
	o.errs = append(o.errs, err)
}

// run sets the workload up, warms it, times one window of closed-loop
// releases beside the open-loop ingest stream, and checks the answers.
// A traced run also times the handler without HTTP and replays the
// workload layer by layer; it reports per-layer metrics instead.
func run(cfg config, traced bool) (*runOutput, error) {
	wl := cfg.wl
	out := &runOutput{metrics: map[string]float64{}}
	if traced {
		out.tr = newTracer()
		cfg.setups = 1
	}
	dataDir := func(i int) string {
		if !wl.durable {
			return ""
		}
		return filepath.Join(cfg.dir, fmt.Sprintf("data-%s-%d-%d", wl.name, cfg.seed, i))
	}
	var (
		e                *env
		setups, unstolen []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if dir := dataDir(i); dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
		}
		var (
			d   time.Duration
			err error
		)
		runtime.GC() // every set-up starts from the same clean heap
		steal0, ticks0 := cpuTicks()
		if e, d, err = openEnv(wl, cfg.seed, dataDir(i)); err != nil {
			return nil, err
		}
		steal1, ticks1 := cpuTicks()
		setups = append(setups, d.Seconds())
		if stealShare(steal0, ticks0, steal1, ticks1) < stealMax {
			unstolen = append(unstolen, d.Seconds())
		}
		if i < cfg.setups-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
	}
	closed := false
	defer func() {
		if !closed {
			_ = e.close()
		}
	}()
	if len(unstolen) > 0 {
		setups = unstolen
	}
	out.metrics["setup_s"] = medianFloat(setups)

	chk := checker{groups: wl.groups, users: wl.users, rows: wl.users * wl.rowsPerUser}
	clients := wl.clients(cfg.nproc)
	// Every release the ledger charged, warm-up included, and their summed
	// native cost: what the tenant's spend and audit log must show.
	var (
		charged int
		cost    float64
	)
	count := func(t tally) {
		out.add(t)
		charged += t.charged
		cost += t.cost
	}

	// Warm-up: cheap charged releases past the audit retention cap (the
	// distinct ones also fill the response cache to its bound), then the
	// workload's own stream so its repeated requests are cached.
	never := time.Now().Add(time.Hour)
	l := loop{send: httpSender(e), chk: chk, accounting: wl.accounting}
	warm := sum(l.drive(clients, never, func(c, j int) (request, bool) {
		k := c + j*clients
		return warmRequest(k), k < cfg.warmCharged
	}))
	warm.merge(sum(l.drive(clients, never, func(c, j int) (request, bool) {
		return wl.next(cfg.seed, c, j), j < cfg.warmStream
	})))
	count(warm)
	out.metrics["bench.warmup_releases"] = float64(warm.attempted)

	// The timed window.
	var before, after map[string]float64
	var statsBefore, statsAfter serve.ServerStats
	if traced {
		l.tr, l.span = out.tr, "http.release"
		var err error
		if before, err = e.scrape(); err != nil {
			return nil, err
		}
		if _, err = e.get("/v1/stats", &statsBefore); err != nil {
			return nil, err
		}
	}
	runtime.GC() // the window starts from a clean heap, not the warm-up's garbage
	first := markNow()
	start := first.at
	inner := markEvery(start, cfg.window/windowSlices, windowSlices-1)
	ingDone := make(chan ingestResult, 1)
	go func() { ingDone <- ingest(e, wl, cfg.seed, cfg.window) }()
	win := sum(l.drive(clients, start.Add(cfg.window), func(c, j int) (request, bool) {
		return wl.next(cfg.seed, c, cfg.warmStream+j), true
	}))
	ing := <-ingDone
	marks := append(append([]mark{first}, <-inner...), markNow())
	last := marks[len(marks)-1]
	out.steal = stealShare(first.steal, first.ticks, last.steal, last.ticks)
	all := cut(marks, win, ing.tally)
	kept := clean(all)
	out.slices, out.cleanSlices = len(all), len(kept)
	// A compaction the last requests started would hold a table export
	// in the heap: wait it out (a no-op for in-memory tenants) so the live
	// heap is the steady state, not whether one happened to be in flight.
	if err := e.srv.CompactTenant(tenantID); err != nil {
		return nil, err
	}
	var heap runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap)
	count(win)
	out.add(ing.tally)
	out.releases, out.ingests = len(win.lats), len(ing.lats)
	for _, n := range []int{out.releases, out.ingests} {
		if n < cfg.minTail {
			out.failCheck(fmt.Errorf("%d latency samples, a p99 needs %d", n, cfg.minTail))
		}
	}
	m := out.metrics
	windowMetrics(m, kept)
	m["live_heap_mb"] = float64(heap.HeapAlloc) / (1 << 20)
	m["bench.generator_lag_ms"] = ms(ing.maxLag)

	if traced {
		var err error
		if after, err = e.scrape(); err != nil {
			return nil, err
		}
		if _, err = e.get("/v1/stats", &statsAfter); err != nil {
			return nil, err
		}
		serveMetrics(m, before, after, statsBefore, statsAfter, win.charged)
		m["bench.traced_release_p50_ms"] = m["release_p50_ms"]
		m["bench.traced_release_rps"] = m["release_rps"]

		// The serve layer without HTTP, on the same request stream.
		hl := loop{send: handlerSender(e.srv), chk: chk, accounting: wl.accounting, tr: out.tr, span: "serve.handler"}
		next := cfg.warmStream + win.attempted // past every index the window may have used
		hw := sum(hl.drive(clients, time.Now().Add(cfg.window/2), func(c, j int) (request, bool) {
			return wl.next(cfg.seed, c, next+j), true
		}))
		count(hw)
		m["serve.handler_p50_us"] = 1000 * percentile(hw.lats, 0.50)
		m["serve.handler_p99_us"] = 1000 * percentile(hw.lats, 0.99)
		m["serve.http_overhead_us"] = 1000 * (m["release_p50_ms"] - percentile(hw.lats, 0.50))
		m["obs.render_us"] = renderMetrics(out.tr, e.srv, cfg.reps)
	}

	// End-of-run checks: spend and audit against what was answered, and
	// for a durable tenant the spend a restart recovers.
	spent, audited, err := e.tenantSpend()
	if err != nil {
		return nil, err
	}
	if err := checkSpend(spent, cost, audited, charged); err != nil {
		out.failCheck(err)
	}
	closed = true
	if err := e.close(); err != nil {
		return nil, err
	}
	if wl.durable {
		srv, err := serve.Open(serve.Options{DataDir: dataDir(cfg.setups - 1)})
		if err != nil {
			return nil, fmt.Errorf("perfbench: reopening the durable server: %w", err)
		}
		t, ok := srv.Tenant(tenantID)
		if !ok {
			out.failCheck(fmt.Errorf("tenant %s did not recover", tenantID))
		} else if err := checkRecovered(spent, t.Ledger().Spent()); err != nil {
			out.failCheck(err)
		}
		if err := srv.Close(); err != nil {
			return nil, err
		}
	}

	if traced {
		if err := layerSweeps(cfg, out.tr, m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveMetrics derives the serve and store per-layer metrics from the
// server's own /metrics and /v1/stats over the traced window.
func serveMetrics(m, before, after map[string]float64, sb, sa serve.ServerStats, charged int) {
	delta := func(series string) float64 { return after[series] - before[series] }
	for name, stage := range map[string]string{
		"queue_wait": "queue_wait", "scan": "scan", "noise": "noise", "audit": "audit",
		"group_merge": "group_merge", "deduct": "ledger_deduct",
		"group_commit_wait": "group_commit_wait", "wal_fsync": "wal_fsync",
	} {
		sel := `{stage="` + stage + `"}`
		mean := 0.0
		if n := delta("updp_release_stage_seconds_count" + sel); n > 0 {
			mean = 1e6 * delta("updp_release_stage_seconds_sum"+sel) / n
		}
		m["serve.stage."+name+"_us"] = mean
	}
	hits, misses := float64(sa.CacheHits-sb.CacheHits), float64(sa.CacheMisses-sb.CacheMisses)
	m["serve.cache_hit_ratio"] = hits / max(1, hits+misses)
	per := float64(max(1, charged))
	m["store.fsyncs_per_release"] = delta("updp_wal_fsync_seconds_count") / per
	m["store.wal_bytes_per_release"] = delta("updp_wal_bytes_total") / per
	m["store.compactions"] = delta("updp_compaction_seconds_count")
}
