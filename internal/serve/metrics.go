package serve

import (
	"io"
	"log"
	"net/http"
	"time"

	"repro/internal/dp"
	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the serve layer's telemetry surface: the metric registry
// (rendered at GET /metrics in Prometheus text format), the per-release
// trace context that carries a release ID through every stage, and the
// slow-release log. docs/OBSERVABILITY.md is the operator's catalog of
// every name registered here.

// defaultSlowRelease is the slow-release log threshold when
// Options.SlowRelease is zero.
const defaultSlowRelease = 250 * time.Millisecond

// metricsSet holds every instrument the server writes. Counters double
// as the backing store for /v1/stats, so the JSON and Prometheus views
// can never disagree (one source of truth, read atomically).
type metricsSet struct {
	reg *obs.Registry

	releases       *obs.CounterVec // by path: "query" | "estimate" | "histogram"
	refusals       *obs.Counter
	shed           *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	ingestRows     *obs.Counter
	auditRecords   *obs.Counter

	releaseSeconds *obs.HistogramVec // end-to-end, by path
	stageSeconds   *obs.HistogramVec // per stage (see observeStage callers)
	ingestSeconds  *obs.HistogramVec // ingestion batch, by stage

	// storeMet is handed to store.SetMetrics so the durability engine's
	// fsync/compaction/WAL instruments land on the same registry.
	storeMet *store.Metrics
}

func newMetricsSet() *metricsSet {
	reg := obs.NewRegistry()
	lat := obs.LatencyBuckets()
	m := &metricsSet{
		reg:            reg,
		releases:       reg.CounterVec("updp_releases_total", "Release attempts by path (query = SQL, estimate = direct estimator, histogram = grouped count).", "path"),
		refusals:       reg.Counter("updp_budget_refusals_total", "Releases refused because the tenant budget could not afford them."),
		shed:           reg.Counter("updp_shed_total", "Requests shed by the full worker queue (HTTP 503)."),
		cacheHits:      reg.Counter("updp_cache_hits_total", "Releases replayed from a tenant response cache (budget-free)."),
		cacheMisses:    reg.Counter("updp_cache_misses_total", "Release attempts that missed the response cache."),
		cacheEvictions: reg.Counter("updp_cache_evictions_total", "LRU evictions across every tenant response cache."),
		ingestRows:     reg.Counter("updp_ingest_rows_total", "Rows accepted through the ingestion endpoint."),
		auditRecords:   reg.Counter("updp_audit_records_total", "DP audit records appended (one per charged release)."),
		releaseSeconds: reg.HistogramVec("updp_release_seconds", "End-to-end release latency by path, successful or not.", lat, "path"),
		stageSeconds:   reg.HistogramVec("updp_release_stage_seconds", "Release-path stage latency; docs/OBSERVABILITY.md catalogs the stages.", lat, "stage"),
		ingestSeconds:  reg.HistogramVec("updp_ingest_stage_seconds", "Ingestion-batch stage latency: store (decode + sharded insert) and wal (row-record append).", lat, "stage"),
	}
	m.storeMet = &store.Metrics{
		FsyncSeconds:      reg.Histogram("updp_wal_fsync_seconds", "WAL flush+fsync latency (one per commit batch; the release path's durability barrier).", lat),
		CompactionSeconds: reg.Histogram("updp_compaction_seconds", "WAL compaction latency (background and Flush): seal tail, replay sealed segments, publish snapshot, delete covered segments.", lat),
		WALRecords:        reg.Counter("updp_wal_records_total", "WAL records appended across every tenant log."),
		WALBytes:          reg.Counter("updp_wal_bytes_total", "WAL bytes appended across every tenant log."),
		AuditFsyncSeconds: reg.Histogram("updp_audit_fsync_seconds", "Audit-log hardening (flush+fsync) latency on durable tenants.", lat),
		AuditRecords:      m.auditRecords,
		BatchSize:         reg.Histogram("updp_wal_batch_size", "Entries acked per group-commit fsync barrier; a charged release is one entry (deduction and audit record together).", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
	return m
}

// registerGauges installs the live-state collectors: values derived from
// server state at scrape time rather than accumulated by request paths.
// Called once from Open, after the Server is fully constructed.
func (s *Server) registerGauges() {
	reg := s.metrics.reg
	reg.GaugeFunc("updp_pool_queue_depth", "Release jobs queued but not yet running.", nil, func(emit obs.EmitGauge) {
		emit(float64(len(s.pool.jobs)))
	})
	reg.GaugeFunc("updp_pool_workers", "Worker pool size.", nil, func(emit obs.EmitGauge) {
		emit(float64(s.pool.workers))
	})
	reg.GaugeFunc("updp_tenants", "Registered tenants.", nil, func(emit obs.EmitGauge) {
		s.mu.RLock()
		n := len(s.tenants)
		s.mu.RUnlock()
		emit(float64(n))
	})
	reg.GaugeFunc("updp_uptime_seconds", "Seconds since the server started.", nil, func(emit obs.EmitGauge) {
		emit(time.Since(s.start).Seconds())
	})
	if s.st != nil {
		reg.GaugeFunc("updp_wal_segments", "Sealed (immutable, fully fsynced) WAL segments on disk across every durable tenant; compaction folds them into the snapshot and deletes them.", nil, func(emit obs.EmitGauge) {
			emit(float64(s.st.Segments()))
		})
	}
	// The per-tenant budget odometer: total/spent/remaining in the
	// tenant's NATIVE unit (ε for pure, ρ for zcdp, converted ε for rdp —
	// mixing units across tenants is inherent to heterogeneous backends;
	// dashboards should group by tenant), burn rate over the sliding
	// odometer window, and the projected time to exhaustion (+Inf renders
	// when the tenant is idle — valid Prometheus, and exactly what "never
	// at this rate" means).
	tenantGauge := func(name, help string, val func(t *Tenant) float64) {
		reg.GaugeFunc(name, help, []string{"tenant"}, func(emit obs.EmitGauge) {
			for _, t := range s.snapshotTenants() {
				emit(val(t), t.id)
			}
		})
	}
	tenantGauge("updp_tenant_budget_total", "Tenant budget total, native units.",
		func(t *Tenant) float64 { return t.led.Total() })
	tenantGauge("updp_tenant_budget_spent", "Tenant budget spent, native units (within the current window for windowed tenants).",
		func(t *Tenant) float64 { return t.led.Spent() })
	tenantGauge("updp_tenant_budget_remaining", "Tenant budget remaining, native units.",
		func(t *Tenant) float64 { return t.led.Remaining() })
	tenantGauge("updp_tenant_burn_per_second", "Budget burn rate over the odometer window, native units per second.",
		func(t *Tenant) float64 { return t.odo.Rate() })
	tenantGauge("updp_tenant_seconds_to_exhaustion", "Projected seconds until the budget exhausts at the current burn rate (+Inf when idle).",
		func(t *Tenant) float64 { return t.odo.TimeToExhaustion(t.led.Remaining()) })
}

// snapshotTenants copies the registry out from under the lock so a
// scrape never holds it across ledger reads.
func (s *Server) snapshotTenants() []*Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	return out
}

// MetricsHandler serves the registry in the Prometheus text exposition
// format — mounted at GET /metrics on the API mux, and mountable on a
// separate listener by the binary (-metrics-addr).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, s.metrics.reg.RenderText())
	})
}

// ---------- per-release trace context ----------

// release is one in-flight release's observability context: the release
// ID (echoed in the X-Release-Id response header, stamped on the audit
// line, printed by the slow-release log), the span trace, and — filled
// in by its releaseLedger — whether and what the release actually
// charged.
type release struct {
	id    string
	path  string // "query" | "estimate" | "histogram"
	mech  string // audit mechanism name: "sql", or the estimate stat
	tr    *obs.Trace
	spent bool
	cost  dp.Cost
}

func newRelease(path, mech string) *release {
	id := obs.NewID()
	return &release{id: id, path: path, mech: mech, tr: obs.NewTrace(id)}
}

// observeStage records one stage duration into both the server-wide
// stage histogram (with the release ID as the bucket's exemplar) and
// the release's own trace.
func (s *Server) observeStage(rel *release, stage string, d time.Duration) {
	s.metrics.stageSeconds.With(stage).ObserveExemplar(d.Seconds(), rel.id)
	rel.tr.Observe(stage, d)
}

// finishRelease closes out a release: the trace's end time freezes,
// end-to-end latency lands in the per-path histogram (release ID as
// exemplar), the structured slow-release log line fires when the
// release crossed the threshold, and the completed trace is retained in
// the flight recorder — slow/errored/shed releases tail-sampled so they
// survive any flood of healthy ones. The recorded ID is the same one in
// the X-Release-Id header and on the audit line, so a dashboard bucket,
// a log grep, and GET /v1/traces/{id} all meet at the same trace.
func (s *Server) finishRelease(t *Tenant, rel *release, status int) {
	rel.tr.Finish()
	total := rel.tr.Total()
	s.metrics.releaseSeconds.With(rel.path).ObserveExemplar(total.Seconds(), rel.id)
	slow := s.slowRel > 0 && total >= s.slowRel
	if slow {
		log.Printf("serve: slow release id=%s tenant=%s path=%s mech=%s status=%d total=%v stages: %s",
			rel.id, t.id, rel.path, rel.mech, status, total.Round(time.Microsecond), rel.tr)
	}
	outcome := "ok"
	switch {
	case status == http.StatusServiceUnavailable:
		outcome = "shed"
	case status >= 500:
		outcome = "error"
	case slow:
		outcome = "slow"
	}
	if s.recorder != nil {
		s.recorder.Record(&obs.RecordedTrace{
			ID:      rel.id,
			Tenant:  t.id,
			Path:    rel.path,
			Mech:    rel.mech,
			Status:  status,
			Outcome: outcome,
			Start:   rel.tr.Start(),
			Total:   total,
			Spans:   rel.tr.Spans(),
		}, slow || status >= 500)
	}
	if s.watchdog != nil {
		s.watchdog.observe(total)
	}
}
