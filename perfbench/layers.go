package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/xrand"
	"repro/updp"
)

// The traced run's layer replay: each layer is timed from outside by
// calling its public functions, every call wrapped in a benchmark-side
// span. Nothing here changes a layer.

// renderMetrics times GET /metrics through the handler and returns the
// median in µs.
func renderMetrics(tr *tracer, srv *serve.Server, reps int) float64 {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		ds = append(ds, tr.timed("obs.render", 0, "", func() {
			srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
		}))
	}
	return us(median(ds))
}

// fanout runs a table's shard scans on up to workers goroutines, as the
// server's worker pool would.
func fanout(workers int) dpsql.Fanout {
	return func(n int, run func(int)) {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for w := 0; w < min(workers, n); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					run(i)
				}
			}()
		}
		wg.Wait()
	}
}

// replayDB provisions a database like the tenant: same seeded rows and
// the given shard count, a fan-out of nproc goroutines, and a budget no
// replay exhausts.
func replayDB(cfg config, shards int) (*dpsql.DB, *dpsql.Table, error) {
	db := dpsql.NewDB()
	db.SetDefaultShards(shards)
	db.SetFanout(fanout(cfg.nproc))
	if err := db.SetBudget(1e12); err != nil {
		return nil, nil, err
	}
	cols := []dpsql.Column{{Name: "uid", Kind: dpsql.KindString}, {Name: "v", Kind: dpsql.KindFloat}, {Name: "grp", Kind: dpsql.KindString}}
	tab, err := db.Create("metrics", cols, "uid")
	if err != nil {
		return nil, nil, err
	}
	if err := tab.AppendRows(dpsqlRows(tableRows(cfg.wl, cfg.seed))); err != nil {
		return nil, nil, err
	}
	return db, tab, nil
}

// spanLedger times each Spend of the ledger it wraps as a dp.spend span.
type spanLedger struct {
	dp.Ledger
	tr     *tracer
	parent int
	req    string
}

func (l spanLedger) Spend(c dp.Cost) error {
	var err error
	l.tr.timed("dp.spend", l.parent, l.req, func() { err = l.Ledger.Spend(c) })
	return err
}

// layerSweeps replays a fixed-seed sample of the workload's requests
// layer by layer, then sweeps every layer's calls a fixed number of
// times, and fills in the per-layer metrics.
func layerSweeps(cfg config, tr *tracer, m map[string]float64) error {
	db, tab, err := replayDB(cfg, cfg.wl.shards)
	if err != nil {
		return err
	}
	one, _, err := replayDB(cfg, 1)
	if err != nil {
		return err
	}
	st, err := openScratchStore(cfg)
	if err != nil {
		return err
	}
	defer st.close()
	rng := xrand.New(cfg.seed)
	hist := obs.NewRegistry().Histogram("perfbench_release_seconds", "replayed release latency", obs.LatencyBuckets())
	rec := obs.NewRecorder(256)
	if err := replaySample(cfg, tr, db, tab, st, hist, rec, rng); err != nil {
		return err
	}
	if err := sweepDpsql(cfg, tr, m, db, one, tab, rng); err != nil {
		return err
	}
	if err := sweepUpdp(cfg, tr, m, tab, rng); err != nil {
		return err
	}
	if err := sweepDp(cfg, tr, m, rng); err != nil {
		return err
	}
	sweepObs(cfg, tr, m, hist, rec)
	return st.sweep(cfg, tr, m)
}

// replaySample re-enacts the sampled requests, each as one span tree:
// dpsql → updp/dp → store (durable tenants only) → obs.
func replaySample(cfg config, tr *tracer, db *dpsql.DB, tab *dpsql.Table, st *scratchStore, hist *obs.Histogram, rec *obs.Recorder, rng *xrand.RNG) error {
	led, err := newLedger(cfg.wl.accounting)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.replayN; i++ {
		r := cfg.wl.next(cfg.seed, 0, i)
		req := "replay-" + strconv.Itoa(i)
		root, end := tr.open("replay", 0, req)
		start := time.Now()
		if err := replayOne(tr, root, req, r, db, tab, spanLedger{led, tr, root, req}, rng); err != nil {
			return fmt.Errorf("perfbench: replaying request %d: %w", i, err)
		}
		if cfg.wl.durable {
			if err := st.release(tr, root, req, dp.EpsCost(1)); err != nil {
				return err
			}
		}
		tr.timed("obs.observe", root, req, func() { hist.Observe(time.Since(start).Seconds()) })
		tr.timed("obs.record", root, req, func() {
			rec.Record(&obs.RecordedTrace{ID: req, Tenant: tenantID, Path: r.kind, Status: http.StatusOK, Outcome: "ok", Start: start, Total: time.Since(start)}, false)
		})
		end()
	}
	return nil
}

// sweepDpsql runs the workload's statements on the tenant-shaped
// database and on its 1-shard twin, the per-user readers, and batch
// appends.
func sweepDpsql(cfg config, tr *tracer, m map[string]float64, db, one *dpsql.DB, tab *dpsql.Table, rng *xrand.RNG) error {
	sweep, end := tr.open("sweep.dpsql", 0, "")
	defer end()
	var (
		exec, exec1, scan, noise, means, users, appends []time.Duration
		m0, m1                                          runtime.MemStats
		err                                             error
	)
	runtime.ReadMemStats(&m0)
	for i := 0; i < cfg.reps; i++ {
		sql := cfg.wl.sqls[i%len(cfg.wl.sqls)]
		id, done := tr.open("dpsql.exec", sweep, "")
		t0 := time.Now()
		_, err = db.ExecTraced(rng, sql, 1, dpsql.ExecOpts{Observe: func(stage string, d time.Duration) {
			now := time.Now()
			tr.add("dpsql."+stage, id, "", now.Add(-d), now)
			switch stage {
			case "scan":
				scan = append(scan, d)
			case "noise":
				noise = append(noise, d)
			}
		}})
		exec = append(exec, time.Since(t0))
		done()
		if err != nil {
			return fmt.Errorf("perfbench: exec %q: %w", sql, err)
		}
	}
	runtime.ReadMemStats(&m1)
	for i := 0; i < cfg.reps; i++ {
		sql := cfg.wl.sqls[i%len(cfg.wl.sqls)]
		exec1 = append(exec1, tr.timed("dpsql.exec_1shard", sweep, "", func() { _, err = one.Exec(rng, sql, 1) }))
		if err != nil {
			return fmt.Errorf("perfbench: 1-shard exec %q: %w", sql, err)
		}
	}
	for i := 0; i < cfg.reps; i++ {
		means = append(means, tr.timed("dpsql.user_means", sweep, "", func() { _, err = tab.UserMeans("v") }))
		if err != nil {
			return err
		}
		users = append(users, tr.timed("dpsql.num_users", sweep, "", func() { tab.NumUsers() }))
	}
	// Appends last: they grow the table the other calls read.
	for i := 0; i < cfg.reps; i++ {
		batch := dpsqlRows(ingestBatch(cfg.wl, cfg.seed, i))
		appends = append(appends, tr.timed("dpsql.append_rows", sweep, "", func() { err = tab.AppendRows(batch) }))
		if err != nil {
			return err
		}
	}
	m["dpsql.exec_p50_us"] = us(median(exec))
	m["dpsql.exec_1shard_p50_us"] = us(median(exec1))
	m["dpsql.exec_scan_us"] = us(median(scan))
	m["dpsql.exec_noise_us"] = us(median(noise))
	m["dpsql.allocs_per_exec"] = float64(m1.Mallocs-m0.Mallocs) / float64(cfg.reps)
	m["dpsql.kb_per_exec"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(cfg.reps)
	m["dpsql.user_means_us"] = us(median(means))
	m["dpsql.num_users_us"] = us(median(users))
	m["dpsql.append_rows_us"] = us(median(appends))
	return nil
}

// sweepUpdp runs the universal estimators on the table's per-user values.
func sweepUpdp(cfg config, tr *tracer, m map[string]float64, tab *dpsql.Table, rng *xrand.RNG) error {
	xs, err := tab.UserMeans("v")
	if err != nil {
		return err
	}
	sweep, end := tr.open("sweep.updp", 0, "")
	defer end()
	estimators := []struct {
		name string
		fn   func(opts ...updp.Option) (float64, error)
	}{
		{"mean", func(o ...updp.Option) (float64, error) { return updp.Mean(xs, 1, o...) }},
		{"median", func(o ...updp.Option) (float64, error) { return updp.Median(xs, 1, o...) }},
		{"quantile", func(o ...updp.Option) (float64, error) { return updp.Quantile(xs, 0.9, 1, o...) }},
		{"iqr", func(o ...updp.Option) (float64, error) { return updp.IQR(xs, 1, o...) }},
		{"variance", func(o ...updp.Option) (float64, error) { return updp.Variance(xs, 1, o...) }},
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, est := range estimators {
		var ds []time.Duration
		for i := 0; i < cfg.reps; i++ {
			opt := updp.WithSeed(rng.Uint64())
			ds = append(ds, tr.timed("updp."+est.name, sweep, "", func() { _, err = est.fn(opt) }))
			if err != nil {
				return fmt.Errorf("perfbench: updp.%s: %w", est.name, err)
			}
		}
		m["updp."+est.name+"_us"] = us(median(ds))
	}
	runtime.ReadMemStats(&m1)
	m["updp.allocs_per_call"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(estimators)*cfg.reps)
	return nil
}

// sweepDp times ledger deductions on each backend and the noise draws,
// in nanoseconds per call.
func sweepDp(cfg config, tr *tracer, m map[string]float64, rng *xrand.RNG) error {
	sweep, end := tr.open("sweep.dp", 0, "")
	defer end()
	for _, acct := range []string{"pure", "zcdp", "rdp"} {
		l, err := newLedger(acct)
		if err != nil {
			return err
		}
		m["dp.spend_ns."+acct] = perCall(tr, "dp.spend."+acct, sweep, cfg.loops, func() { err = l.Spend(dp.EpsCost(1e-6)) })
		if err != nil {
			return fmt.Errorf("perfbench: %s spend: %w", acct, err)
		}
	}
	m["dp.laplace_ns"] = perCall(tr, "dp.laplace", sweep, cfg.loops, func() { dp.Laplace(rng, 0, 1, 1) })
	m["dp.gaussian_ns"] = perCall(tr, "dp.gaussian", sweep, cfg.loops, func() { dp.Gaussian(rng, 0, 1, 0.5) })
	return nil
}

// sweepObs times one histogram observation and one flight-recorder
// record, in nanoseconds per call.
func sweepObs(cfg config, tr *tracer, m map[string]float64, hist *obs.Histogram, rec *obs.Recorder) {
	sweep, end := tr.open("sweep.obs", 0, "")
	defer end()
	rt := &obs.RecordedTrace{ID: "sweep", Tenant: tenantID, Path: "estimate", Status: http.StatusOK, Outcome: "ok"}
	m["obs.observe_ns"] = perCall(tr, "obs.observe", sweep, cfg.loops, func() { hist.Observe(1e-3) })
	m["obs.record_ns"] = perCall(tr, "obs.record", sweep, cfg.loops, func() { rec.Record(rt, false) })
}

// replayOne re-enacts one release through the layers it crosses.
func replayOne(tr *tracer, root int, req string, r request, db *dpsql.DB, tab *dpsql.Table, led dp.Ledger, rng *xrand.RNG) error {
	var err error
	switch b := r.body.(type) {
	case serve.QueryRequest:
		sql := b.SQL
		if b.GroupBy != "" {
			sql += " GROUP BY " + b.GroupBy
		}
		return execSpan(tr, root, req, func(o dpsql.ExecOpts) error {
			_, err := db.ExecTraced(rng, sql, b.Epsilon, o)
			return err
		}, led)
	case serve.HistogramRequest:
		q := &dpsql.Query{Table: b.Table, GroupBy: b.GroupBy, Aggs: []dpsql.AggSpec{{Kind: dpsql.AggCount}}}
		return execSpan(tr, root, req, func(o dpsql.ExecOpts) error {
			_, err := db.ExecQueryTraced(rng, q, b.Epsilon, o)
			return err
		}, led)
	case serve.EstimateRequest:
		if b.GroupBy != "" {
			agg := dpsql.AggSpec{Kind: dpsql.AggMedian, Col: b.Column}
			if b.Stat == "count" {
				agg = dpsql.AggSpec{Kind: dpsql.AggCount}
			}
			q := &dpsql.Query{Table: b.Table, GroupBy: b.GroupBy, Aggs: []dpsql.AggSpec{agg}}
			return execSpan(tr, root, req, func(o dpsql.ExecOpts) error {
				_, err := db.ExecQueryTraced(rng, q, b.Epsilon, o)
				return err
			}, led)
		}
		var (
			xs []float64
			n  int
		)
		if b.Stat == "count" {
			tr.timed("dpsql.num_users", root, req, func() { n = tab.NumUsers() })
		} else {
			tr.timed("dpsql.user_means", root, req, func() { xs, err = tab.UserMeans(b.Column) })
		}
		if err != nil {
			return err
		}
		cost := dp.EpsCost(b.Epsilon)
		if b.Rho > 0 {
			cost = dp.RhoCost(b.Rho)
		}
		if err := led.Spend(cost); err != nil {
			return err
		}
		opt := updp.WithSeed(rng.Uint64())
		tr.timed(estimatorSpan(b), root, req, func() {
			switch b.Stat {
			case "count":
				if b.Rho > 0 {
					dp.Gaussian(rng, float64(n), 1, b.Rho)
				} else {
					dp.Laplace(rng, float64(n), 1, b.Epsilon)
				}
			case "mean":
				_, err = updp.Mean(xs, b.Epsilon, opt)
			case "median":
				_, err = updp.Median(xs, b.Epsilon, opt)
			case "quantile":
				_, err = updp.Quantile(xs, b.P, b.Epsilon, opt)
			case "iqr":
				_, err = updp.IQR(xs, b.Epsilon, opt)
			case "variance":
				_, err = updp.Variance(xs, b.Epsilon, opt)
			default:
				err = fmt.Errorf("no replay for stat %q", b.Stat)
			}
		})
		return err
	}
	return fmt.Errorf("unknown request body %T", r.body)
}

func estimatorSpan(b serve.EstimateRequest) string {
	switch {
	case b.Stat == "count" && b.Rho > 0:
		return "dp.gaussian"
	case b.Stat == "count":
		return "dp.laplace"
	}
	return "updp." + b.Stat
}

// execSpan runs one dpsql execution as a dpsql.exec span whose children
// are its Observe stages and its ledger deduction.
func execSpan(tr *tracer, root int, req string, exec func(dpsql.ExecOpts) error, led dp.Ledger) error {
	id, end := tr.open("dpsql.exec", root, req)
	defer end()
	if sl, ok := led.(spanLedger); ok {
		sl.parent = id
		led = sl
	}
	return exec(dpsql.ExecOpts{
		Ledger: led,
		Observe: func(stage string, d time.Duration) {
			now := time.Now()
			tr.add("dpsql."+stage, id, req, now.Add(-d), now)
		},
	})
}

// newLedger builds a ledger of the accounting backend with a budget no
// run exhausts.
func newLedger(accounting string) (dp.Ledger, error) {
	switch accounting {
	case "zcdp":
		return dp.NewZCDPLedger(1e12, 1e-6)
	case "rdp":
		return dp.NewRDPLedger(1e12, 1e-6, nil)
	}
	return dp.NewBasicLedger(1e12)
}

// perCall times loops calls of fn in ten chunks, one span each, and
// returns the median chunk's nanoseconds per call.
func perCall(tr *tracer, name string, parent, loops int, fn func()) float64 {
	const chunks = 10
	var ds []time.Duration
	for c := 0; c < chunks; c++ {
		ds = append(ds, tr.timed(name, parent, "", func() {
			for i := 0; i < loops/chunks; i++ {
				fn()
			}
		}))
	}
	return float64(median(ds)) / float64(max(1, loops/chunks))
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// scratchStore is a store.Open on a fresh directory with one tenant log
// and its audit log, for the store layer's calls.
type scratchStore struct {
	dir   string
	st    *store.Store
	log   *store.TenantLog
	audit *store.AuditLog
	cfg   store.TenantConfig
}

func openScratchStore(cfg config) (*scratchStore, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("store-%s-%d", cfg.wl.name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &scratchStore{dir: dir, st: st, cfg: store.TenantConfig{Epsilon: 1e12, Accounting: "pure", Shards: 1}}
	st.SetGroupCommit(store.GroupCommitOptions{}) // the server's default
	if s.log, err = st.CreateTenant(tenantID, s.cfg); err == nil {
		if s.audit, err = st.OpenAudit(tenantID); err == nil {
			err = s.log.AppendTable(dpsql.TableState{
				Name:    "metrics",
				Columns: []dpsql.Column{{Name: "uid", Kind: dpsql.KindString}, {Name: "v", Kind: dpsql.KindFloat}, {Name: "grp", Kind: dpsql.KindString}},
				UserCol: "uid",
			})
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("perfbench: scratch store: %w", err)
	}
	return s, nil
}

func (s *scratchStore) close() {
	if s.audit != nil {
		_ = s.audit.Close()
	}
	_ = s.st.Close()
	_ = os.RemoveAll(s.dir)
}

// release records one deduction and its audit line, as a durable
// release does.
func (s *scratchStore) release(tr *tracer, parent int, req string, c dp.Cost) error {
	var err error
	tr.timed("store.commit_deduct", parent, req, func() { _, err = s.log.CommitDeduct(c) })
	if err != nil {
		return err
	}
	tr.timed("store.audit_append", parent, req, func() {
		err = s.audit.Append(&store.AuditRecord{ReleaseID: req, Path: "estimate", Mechanism: "replay", Cost: c, Unit: "eps", NativeCost: c.Eps})
	})
	return err
}

// sweep times the store layer's calls and fills in its metrics.
func (s *scratchStore) sweep(cfg config, tr *tracer, m map[string]float64) error {
	sweep, end := tr.open("sweep.store", 0, "")
	defer end()
	commits := make([][]time.Duration, cfg.nproc)
	errs := make([]error, cfg.nproc)
	var wg sync.WaitGroup
	for g := range commits {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < cfg.reps && errs[g] == nil; i++ {
				commits[g] = append(commits[g], tr.timed("store.commit_deduct", sweep, "", func() {
					_, errs[g] = s.log.CommitDeduct(dp.EpsCost(1))
				}))
			}
		}(g)
	}
	wg.Wait()
	var all, audits, rows, seals, compacts []time.Duration
	for g := range commits {
		if errs[g] != nil {
			return errs[g]
		}
		all = append(all, commits[g]...)
	}
	m["store.commit_deduct_p50_us"] = 1000 * percentile(all, 0.50)
	m["store.commit_deduct_p99_us"] = 1000 * percentile(all, 0.99)
	// Audit and row appends grow the WAL tail; every fifth of the way the
	// tail is sealed into a segment and compacted into the snapshot.
	var err error
	every := max(1, cfg.reps/5)
	for i := 0; i < cfg.reps; i++ {
		rec := &store.AuditRecord{ReleaseID: "sweep", Path: "estimate", Mechanism: "count", Cost: dp.EpsCost(1), Unit: "eps", NativeCost: 1}
		audits = append(audits, tr.timed("store.audit_append", sweep, "", func() { err = s.audit.Append(rec) }))
		if err != nil {
			return err
		}
		batch := dpsqlRows(ingestBatch(cfg.wl, cfg.seed, i))
		rows = append(rows, tr.timed("store.append_rows", sweep, "", func() { err = s.log.AppendRows("metrics", 0, batch) }))
		if err != nil {
			return err
		}
		if (i+1)%every != 0 {
			continue
		}
		seals = append(seals, tr.timed("store.seal", sweep, "", func() { err = s.log.Seal() }))
		if err != nil {
			return err
		}
		compacts = append(compacts, tr.timed("store.compact", sweep, "", func() { err = s.log.Compact(s.cfg, replayLedger) }))
		if err != nil {
			return err
		}
	}
	m["store.audit_append_us"] = us(median(audits))
	m["store.append_rows_us"] = us(median(rows))
	m["store.seal_us"] = us(median(seals))
	m["store.compact_ms"] = ms(median(compacts))
	return nil
}

// replayLedger is the compaction's ledger replayer for the scratch
// tenant's pure ledger.
func replayLedger(cfg store.TenantConfig, prev *dp.LedgerState, deducts []dp.Cost) (dp.LedgerState, error) {
	var (
		l   dp.StatefulLedger
		err error
	)
	if prev != nil {
		l, err = dp.RestoreLedger(*prev)
	} else {
		l, err = dp.NewBasicLedger(cfg.Epsilon)
	}
	if err != nil {
		return dp.LedgerState{}, err
	}
	for _, c := range deducts {
		if err := l.ForceSpend(c); err != nil {
			return dp.LedgerState{}, err
		}
	}
	return l.Snapshot()
}
