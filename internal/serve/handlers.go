package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/internal/store"
)

// The HTTP handlers: routing, tenant and table lifecycle, ingestion,
// and the one release lifecycle (serveRelease) that /query, /estimate
// and /histogram share. Wire types, decoding and validation live in
// decode.go; the estimator release itself lives in estimate.go.

// Handler-level errors.
var (
	errTenantExists = errors.New("serve: tenant already exists")
	// ErrOverloaded reports a full worker queue (the request was shed).
	ErrOverloaded = errors.New("serve: overloaded, retry later")
)

// ---------- routing ----------

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/tenants", s.handleCreateTenant)
	s.mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}", s.handleTenantStatus)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/tables", s.handleCreateTable)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/tables/{table}/rows", s.handleInsertRows)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/histogram", s.handleHistogram)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/audit", s.handleAudit)
	s.mux.HandleFunc("GET /v1/traces", s.handleListTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleGetTrace)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.Handle("GET /metrics", s.MetricsHandler())
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

// ---------- tenant lifecycle ----------

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.ID == "" || strings.ContainsAny(req.ID, "/ \t\n") {
		writeErr(w, http.StatusBadRequest, "bad_tenant_id",
			fmt.Errorf("serve: tenant id %q must be non-empty without slashes or spaces", req.ID))
		return
	}
	t, err := s.createTenant(req)
	if err != nil {
		switch {
		case errors.Is(err, errTenantExists) || errors.Is(err, store.ErrTenantExists):
			writeErr(w, http.StatusConflict, "tenant_exists", err)
		case errors.Is(err, errPersist):
			writeErr(w, http.StatusInternalServerError, "persist_failed", err)
		default:
			writeErr(w, http.StatusBadRequest, "bad_tenant_config", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, s.status(t))
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"tenants": s.tenantIDs()})
}

func (s *Server) status(t *Tenant) TenantStatus {
	st := TenantStatus{
		ID:             t.id,
		Accounting:     t.accounting,
		Unit:           string(t.led.Unit()),
		Total:          t.led.Total(),
		Spent:          t.led.Spent(),
		Remaining:      t.led.Remaining(),
		WindowSeconds:  t.windowSecs,
		Shards:         t.shards,
		Queries:        t.queries.Load(),
		Estimates:      t.estimates.Load(),
		Histograms:     t.histograms.Load(),
		Refusals:       t.refusals.Load(),
		CacheHits:      t.cacheHits.Load(),
		CacheMisses:    t.cacheMisses.Load(),
		CacheEvictions: t.cache.evictions(),
		BurnPerSecond:  t.odo.Rate(),
		AuditRecords:   t.audit.Len(),
	}
	// The exhaustion projection is +Inf for an idle tenant; JSON has no
	// spelling for it, so the field is simply omitted until there is a
	// burn rate to project from (the /metrics gauge does render +Inf).
	if tte := t.odo.TimeToExhaustion(t.led.Remaining()); !math.IsInf(tte, 1) {
		st.SecondsToExhaustion = tte
	}
	// The (ε, δ) view: unwrap a windowed decorator to find the backend.
	inner := t.led
	if wl, ok := inner.(*dp.WindowedLedger); ok {
		inner = wl.Inner()
	}
	switch b := inner.(type) {
	case *dp.ZCDPLedger:
		st.Delta = b.Delta()
		st.TotalEpsilon = b.NominalEps()
		st.SpentEpsilon = dp.ZCDPEpsilon(st.Spent, b.Delta())
		if r := st.TotalEpsilon - st.SpentEpsilon; r > 0 {
			st.RemainingEpsilon = r
		}
	case *dp.RDPLedger:
		// The rdp scalar views already ARE the (ε, δ) conversion; the
		// native state is the per-order spend vector.
		st.Delta = b.Delta()
		st.TotalEpsilon, st.SpentEpsilon, st.RemainingEpsilon = st.Total, st.Spent, st.Remaining
		st.Orders = b.Orders()
		st.SpentRDP = b.SpentByOrder()
		st.BestOrder = b.BestOrder()
	default:
		st.TotalEpsilon, st.SpentEpsilon, st.RemainingEpsilon = st.Total, st.Spent, st.Remaining
	}
	return st
}

func (s *Server) handleTenantStatus(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.status(t))
}

// ---------- schema and ingestion ----------

func (s *Server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	var req CreateTableRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if code, err := createTable(t, req); err != nil {
		status := http.StatusBadRequest
		if code == "persist_failed" {
			status = http.StatusInternalServerError
		}
		writeErr(w, status, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"table": req.Name})
}

// CreateTable registers a table on tenant t — the programmatic twin of
// POST /v1/tenants/{id}/tables, through the same path: on a durable
// server the table's DDL record is synced before it returns.
func (s *Server) CreateTable(t *Tenant, req CreateTableRequest) error {
	_, err := createTable(t, req)
	return err
}

// createTable registers req's table on t, logging its DDL record on a
// durable tenant; on failure code is the wire error code.
func createTable(t *Tenant, req CreateTableRequest) (code string, err error) {
	cols := make([]dpsql.Column, len(req.Columns))
	for i, c := range req.Columns {
		kind, err := decodeColumnKind(c.Kind)
		if err != nil {
			return "bad_kind", err
		}
		cols[i] = dpsql.Column{Name: c.Name, Kind: kind}
	}
	// DDL takes ddlMu exclusively (ingest takes the read side):
	// registering the table makes it instantly visible to concurrent
	// inserts, and without exclusion one could log its rows record at a
	// lower seq than this table's DDL record — rows replay would then run
	// before the table exists and silently drop them.
	if t.log != nil {
		t.ddlMu.Lock()
		defer t.ddlMu.Unlock()
	}
	tab, err := t.db.Create(req.Name, cols, req.UserColumn)
	if err != nil {
		return "bad_schema", err
	}
	if t.log != nil {
		// DDL is synced before the table is acknowledged: an acknowledged
		// schema always recovers. On a persist failure the in-memory table
		// is rolled back too — a ghost that exists in memory but not on
		// disk would 400 every retry and silently drop its replayed rows
		// (no insert can have landed in between: the lock is exclusive).
		// The record carries the table's shard topology for observability;
		// recovery re-derives it from the tenant config.
		st := dpsql.TableState{Name: tab.Name, Columns: cols, UserCol: req.UserColumn}
		if tab.NumShards() > 1 {
			st.Shards = tab.NumShards()
		}
		if err := t.log.AppendTable(st); err != nil {
			t.db.Drop(tab.Name)
			return "persist_failed", err
		}
	}
	return "", nil
}

func (s *Server) handleInsertRows(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	tab, err := t.Table(r.PathValue("table"))
	if err != nil {
		writeReleaseErr(w, err)
		return
	}
	var req InsertRowsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	inserted, err := s.ingest(t, tab, req.Rows)
	var bad *rowError
	switch {
	case errors.As(err, &bad):
		// The body carries the stored-prefix count the client needs to
		// resume precisely.
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": bad.Error(), "code": bad.code, "inserted": inserted,
		})
	case err != nil:
		writeReleaseErr(w, err)
	default:
		writeJSON(w, http.StatusOK, InsertRowsResponse{Inserted: inserted})
	}
}

// InsertRows appends rows to a table of tenant t — the programmatic twin
// of POST /v1/tenants/{id}/tables/{table}/rows, through the same path:
// cells are what that endpoint decodes (float64 or string), and on a
// durable server the stored rows are logged as one WAL record. It
// returns how many rows were stored; on a malformed row that is the
// stored prefix.
func (s *Server) InsertRows(t *Tenant, table string, rows [][]any) (int, error) {
	tab, err := t.Table(table)
	if err != nil {
		return 0, err
	}
	return s.ingest(t, tab, rows)
}

// rowError is a malformed row in an ingest batch: code is its wire error
// code; the rows before it are stored.
type rowError struct {
	code string
	err  error
}

func (e *rowError) Error() string { return e.err.Error() }

// ingest stores and logs a batch (insertBatch), then does what a landed
// batch implies: counts it, invalidates the release cache, and polls the
// compaction trigger. A malformed-row *rowError outranks a persist
// error: its stored-prefix count is what the client needs to resume,
// and the fail-stop log guarantees the very next durable operation
// surfaces the persistence failure anyway.
func (s *Server) ingest(t *Tenant, tab *dpsql.Table, rows [][]any) (int, error) {
	inserted, failure, persistErr := insertBatch(s, t, tab, rows)
	if inserted > 0 {
		s.metrics.ingestRows.Add(int64(inserted))
		// The data version moved: a repeated release is now a genuinely new
		// one and must be charged, so stored replays are stale. This holds
		// even when the batch failed partway or could not be logged — the
		// prefix is in the table either way.
		t.cache.clear()
	}
	if failure != nil {
		return inserted, failure
	}
	if persistErr != nil {
		return inserted, persistErr
	}
	s.maybeSnapshot(t)
	return inserted, nil
}

// insertBatch converts and stores a batch of wire rows, logging the
// successfully-inserted prefix — including on partial failure — as one
// rows record before returning. Rows route to the table's shards by
// user-id hash (each insert takes only its destination shard's lock, so
// concurrent batches for different users stripe instead of
// serializing); the record carries no placement, since replay routes the
// same way, and keeps arrival order, so a WAL-tail recovery is
// order-identical to the pre-crash table. ddlMu's read side is held
// (and released by defer) for the whole insert+log pair, so the rows
// record cannot land ahead of the table's DDL record (table creation
// holds the write side until that record is logged). Row records are
// buffered, not fsynced: a crash may lose trailing ingestion, never
// recorded spend. An append ERROR is a different class from that
// tolerated loss — the log is fail-stop after it, so acknowledging the
// batch would keep returning 200 for rows that will never be durable; it
// is surfaced as persistErr instead. On a malformed row, failure names
// it and inserted is the stored prefix. The two phases
// are timed separately into the ingest stage histogram — "store" (decode
// + sharded insert) and "wal" (the buffered row-record append) — so an
// ingest cliff is attributable to one of them from /metrics alone.
func insertBatch(s *Server, t *Tenant, tab *dpsql.Table, rows [][]any) (inserted int, failure *rowError, persistErr error) {
	var stored [][]dpsql.Value // the inserted prefix, in arrival order
	storeStart := time.Now()
	if t.log != nil {
		stored = make([][]dpsql.Value, 0, len(rows))
		t.ddlMu.RLock()
		defer t.ddlMu.RUnlock()
		defer func() {
			walStart := time.Now()
			defer func() {
				s.metrics.ingestSeconds.With("wal").Observe(time.Since(walStart).Seconds())
			}()
			if err := t.log.AppendRows(tab.Name, 0, stored); err != nil {
				persistErr = fmt.Errorf("%w: recording ingested rows (stored in memory, not durable): %v", errPersist, err)
			}
		}()
	}
	// LIFO defers: this one runs BEFORE the WAL append above, closing the
	// "store" phase exactly where the "wal" phase begins.
	defer func() {
		s.metrics.ingestSeconds.With("store").Observe(time.Since(storeStart).Seconds())
	}()
	for i, row := range rows {
		vals := make([]dpsql.Value, len(row))
		for j, cell := range row {
			v, err := decodeCell(cell)
			if err != nil {
				return i, &rowError{"bad_cell", fmt.Errorf("serve: row %d cell %d: %v", i, j, err)}, nil
			}
			vals[j] = v
		}
		if err := tab.Insert(vals...); err != nil {
			return i, &rowError{"bad_row", err}, nil
		}
		if t.log != nil {
			stored = append(stored, vals)
		}
	}
	return len(rows), nil, nil
}

// ---------- releases ----------

// handleQuery releases one dpsql SELECT. The statement is parsed once:
// its cache key depends on whether it groups, and a statement that does
// not parse is answered with a free 400 before the cache is consulted.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	var req QueryRequest
	if !decodeJSON(w, r, &req) || !canonicalBound(w, &req.ContributionBound) {
		return
	}
	// The group_by wire field is sugar for writing GROUP BY in the
	// statement; a query that already has one then fails to parse, which
	// surfaces as a plain 400 before any budget is touched.
	sql := req.SQL
	if req.GroupBy != "" {
		sql += " GROUP BY " + req.GroupBy
	}
	q, err := dpsql.Parse(sql)
	if err == nil && q.GroupBy == "" {
		// An ungrouped query runs at bound 1 however the request spells
		// it, so every spelling shares one cache entry.
		req.ContributionBound = 1
	}
	key := fmt.Sprintf("sql|%q|gb=%q|eps=%g|cb=%d", req.SQL, req.GroupBy, req.Epsilon, req.ContributionBound)
	serveRelease(s, w, t, newRelease("query", "sql"), key, err, func(led *releaseLedger) (QueryResponse, error) {
		res, err := execSQL(led, q, req.Epsilon, req.ContributionBound)
		if err != nil {
			return QueryResponse{}, err
		}
		out := QueryResponse{EpsSpent: res.EpsSpent, Rows: make([]QueryResultRow, 0, len(res.Rows))}
		for _, row := range res.Rows {
			qr := QueryResultRow{Values: row.Values}
			if row.HasGroup {
				qr.Group = row.Group.String()
			}
			out.Rows = append(out.Rows, qr)
		}
		return out, nil
	})
}

// handleEstimate releases one estimator on a column (estimate.go). The
// bound is validated, then the request canonicalized, so every endpoint
// refuses a bad bound alike and spelled-differently-but-equal requests
// share one cache entry; data-independent mistakes (unknown table, bad
// stat, unit or parameter) are then answered with a free error before
// the cache is consulted.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	var req EstimateRequest
	if !decodeJSON(w, r, &req) || !canonicalBound(w, &req.ContributionBound) {
		return
	}
	canonicalizeEstimate(&req)
	tab, err := t.Table(req.Table)
	if err == nil {
		err = validateEstimate(req)
	}
	serveRelease(s, w, t, newRelease("estimate", req.Stat), estimateCacheKey(req), err, func(led *releaseLedger) (EstimateResponse, error) {
		return estimate(led, tab, req)
	})
}

// handleHistogram releases a count-by-key histogram: one noisy user
// count per group of a public categorical column, executed as a single
// grouped COUNT release — bounded per-user group contributions, one
// parallel-composed deduction, one audit record, cached and charged
// exactly like a query release.
func (s *Server) handleHistogram(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	var req HistogramRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.GroupBy == "" {
		writeErr(w, http.StatusBadRequest, "bad_group_by",
			fmt.Errorf("%w: histogram needs a group_by column", errBadGroupBy))
		return
	}
	if !canonicalBound(w, &req.ContributionBound) {
		return
	}
	key := fmt.Sprintf("hist|%q|%q|eps=%g|cb=%d", req.Table, req.GroupBy, req.Epsilon, req.ContributionBound)
	serveRelease(s, w, t, newRelease("histogram", "histogram"), key, nil, func(led *releaseLedger) (HistogramResponse, error) {
		q := &dpsql.Query{Table: req.Table, GroupBy: req.GroupBy, Aggs: []dpsql.AggSpec{{Kind: dpsql.AggCount}}}
		res, err := execSQL(led, q, req.Epsilon, req.ContributionBound)
		if err != nil {
			return HistogramResponse{}, err
		}
		out := HistogramResponse{EpsSpent: res.EpsSpent, Buckets: make([]HistogramBucket, 0, len(res.Rows))}
		for _, row := range res.Rows {
			out.Buckets = append(out.Buckets, HistogramBucket{Group: row.Group.String(), Count: row.Value})
		}
		return out, nil
	})
}

// replayable is a release response. replay returns the response as a
// cache hit replays it (Cached = true); the cache stores that form, so a
// hit is written as stored.
type replayable interface{ replay() any }

func (r QueryResponse) replay() any     { r.Cached = true; return r }
func (r EstimateResponse) replay() any  { r.Cached = true; return r }
func (r HistogramResponse) replay() any { r.Cached = true; return r }

// serveRelease is the lifecycle every /query, /estimate and /histogram
// release runs once its handler has decoded the request: the release
// ID header and counters; invalid, a data-independent mistake found by
// the handler, answered for free; the cache, which replays a
// byte-identical repeat for free; and otherwise run on a worker with
// the release's ledger. A full queue sheds the release before run
// starts, so nothing is charged. A charged release is audited whether
// its mechanism then succeeded or not — the log records spend, not
// success — and an answer whose audit line could not be written is
// withheld. Only a success is cached, under the data version read
// before run took its snapshot, so an ingestion landing in between
// leaves nothing stale behind.
func serveRelease[R replayable](s *Server, w http.ResponseWriter, t *Tenant, rel *release, key string, invalid error, run func(*releaseLedger) (R, error)) {
	w.Header().Set("X-Release-Id", rel.id)
	s.metrics.releases.With(rel.path).Inc()
	switch rel.path {
	case "query":
		t.queries.Add(1)
	case "estimate":
		t.estimates.Add(1)
	default:
		t.histograms.Add(1)
	}
	status := http.StatusOK
	defer func() { s.finishRelease(t, rel, status) }()
	if invalid != nil {
		status = writeReleaseErr(w, invalid)
		return
	}

	c0 := time.Now()
	hit, cached := t.cache.get(key)
	s.observeStage(rel, "cache_lookup", time.Since(c0))
	if cached {
		s.metrics.cacheHits.Inc()
		t.cacheHits.Add(1)
		writeJSON(w, http.StatusOK, hit)
		return
	}
	s.metrics.cacheMisses.Inc()
	t.cacheMisses.Add(1)

	ver := t.cache.version()
	led := &releaseLedger{s: s, t: t, rel: rel}
	var (
		out R
		err error
	)
	ran, wait := s.pool.doTimed(func() { out, err = run(led) })
	if !ran {
		s.metrics.shed.Inc()
		status = writeReleaseErr(w, ErrOverloaded)
		return
	}
	s.observeStage(rel, "queue_wait", wait)
	if errors.Is(err, dp.ErrBudgetExhausted) {
		s.metrics.refusals.Inc()
		t.refusals.Add(1)
	}
	if rel.spent {
		if aerr := s.auditRelease(t, rel); aerr != nil {
			err = aerr
		}
	}
	if err != nil {
		status = writeReleaseErr(w, err)
		return
	}
	t.cache.putAt(key, out.replay(), ver)
	s.maybeSnapshot(t)
	writeJSON(w, http.StatusOK, out)
}

// execSQL runs one parsed query as led's release, on the worker running
// it. The table scan fans out over the tenant's shards through the same
// pool, merging the per-shard fragments before the estimators run — one
// deduction, one mechanism, unchanged noise semantics. The release's
// ledger charges the one deduction, and its stage observers land the
// scan, per-shard and noise spans on the release's trace.
func execSQL(led *releaseLedger, q *dpsql.Query, eps float64, bound int) (*dpsql.Result, error) {
	s, rel := led.s, led.rel
	return led.t.db.ExecQueryTraced(s.splitRNG(), q, eps, dpsql.ExecOpts{
		Ledger:       led,
		GroupBound:   bound,
		Observe:      func(stage string, d time.Duration) { s.observeStage(rel, stage, d) },
		ObserveShard: shardSpanObserver(rel),
	})
}

// ---------- server stats ----------

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	m := s.metrics
	writeJSON(w, http.StatusOK, ServerStats{
		Tenants:        n,
		Workers:        s.Workers(),
		Queries:        m.releases.With("query").Value(),
		Estimates:      m.releases.With("estimate").Value(),
		Histograms:     m.releases.With("histogram").Value(),
		Refusals:       m.refusals.Value(),
		Shed:           m.shed.Value(),
		CacheHits:      m.cacheHits.Value(),
		CacheMisses:    m.cacheMisses.Value(),
		CacheEvictions: m.cacheEvictions.Value(),
		DataDir:        s.DataDir(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
	})
}
