// Package serve is the multi-tenant DP query service: an HTTP+JSON layer
// that hosts many isolated tenants, each owning a dpsql database and one
// privacy ledger, and executes estimator releases and SQL queries
// concurrently through a bounded worker pool.
//
// This is the system shape the paper's universal estimators need to be
// useful at scale: many statistics served off one dataset under one
// accounted privacy budget, with ingestion streaming in while queries
// run. Because the estimators need no range, scale, or family hints, the
// service exposes them with no tuning knobs beyond (statistic, ε) — a
// tenant cannot misconfigure a clipping bound, because there is none.
//
// Budget model: a tenant is created with a nominal budget and a pluggable
// composition backend (dp.Ledger) that decides how releases compose:
//
//   - "pure" (default): basic composition of pure ε (Lemma 2.2) — k
//     releases at ε₀ cost k·ε₀.
//   - "zcdp": zCDP accounting at a (ε, δ) target — each pure release
//     costs only ε₀²/2 in ρ (Bun & Steinke 2016), so sustained
//     many-small-releases traffic lasts quadratically longer; natively
//     Gaussian releases are charged their ρ directly.
//   - "rdp": Rényi accounting over a grid of orders α ("orders" in the
//     create request; default α ∈ [1.25, 64]) at the same (ε, δ) target.
//     Every release is priced as its full RDP curve — pure releases via
//     the tight pure-DP→RDP bound (strictly below zcdp's ε²/2 line),
//     Gaussian releases via ρα — the per-order vectors compose by
//     addition, and the budget is enforced on the optimal (ε, δ)
//     conversion: on a grid bracketing the optimal order
//     α* ≈ 1 + sqrt(ln(1/δ)/ρ) (the default suffices for ε ≳ 0.5 at
//     δ = 1e-6) rdp is never looser than zcdp, and strictly
//     tighter on mixed Laplace+Gaussian traffic. Tenant status reports
//     the native per-order spend alongside the converted view.
//   - any backend may be wrapped with a renewable window
//     (window_seconds): the budget refills to full on a fixed wall-clock
//     cadence, turning a lifetime total into a rate.
//
// docs/ACCOUNTING.md is the operator's guide to choosing a backend (and
// an rdp order grid); docs/API.md documents every endpoint's wire format.
//
// Every release — SQL query or direct estimator call — names its own cost
// and is atomically deducted from the tenant's single ledger before the
// mechanism runs; a request that would overdraw is refused with HTTP 429
// and releases nothing. Failed releases after deduction stay charged
// (refunding on data-dependent failures would leak through the budget
// itself). Schema DDL and row ingestion touch stored data only and are
// free, as are cache replays of byte-identical repeated releases
// (post-processing of an already-released answer).
//
// Durability (Options.DataDir, internal/store): a budget is a *lifetime*
// total, so an in-memory ledger that refills on restart voids the
// guarantee — crash the process, get a fresh budget. With a data
// directory every tenant carries a write-ahead log plus compacted
// snapshots. What is logged when:
//
//   - tenant creation and table DDL: logged and fsynced before the
//     request is acknowledged;
//   - every ledger deduction: logged and fsynced after the in-memory
//     check-and-deduct succeeds and before the mechanism runs — no
//     answer ever leaves the process on a deduction a crash could
//     forget. Concurrent deductions share the fsync through the WAL
//     group committer: releases park on a commit barrier and one batch
//     record — one fsync — acks all of them, their audit records riding
//     the same barrier, so durable throughput scales with concurrency
//     instead of being bounded by per-release fsync latency;
//   - row ingestion batches: logged without fsync (hardened by the next
//     commit batch's fsync, a seal, or Close).
//
// The invariant, "spend is never under-counted": after any crash,
// recovered spend >= the spend of every answered release. The converse
// loss is tolerated asymmetrically — a torn WAL tail may drop trailing
// data rows (utility) but replay never drops a recorded deduction
// (privacy), and replaying the same log twice converges on the same
// state. Snapshots are compacted from the WAL alone, in the background
// and at Close; kill -9 merely means the next Open replays a longer WAL
// tail.
//
// Sharding ("shards" at tenant creation, Options.DefaultShards): a
// tenant's tables are hash-partitioned by user id into N shards, each
// with its own lock, so concurrent ingest batches stripe instead of
// serializing, and every release scan fans out over the shards through
// the worker pool (a work-stealing fan that can never deadlock the pool
// — see pool.fan). Three invariants make the topology invisible to
// everything but the clock:
//
//   - merge-as-post-processing: per-shard scans produce per-user
//     aggregates that merge into exactly the collapse a monolithic scan
//     yields, BEFORE the mechanism runs — because users are hash-routed,
//     a user's rows colocate in arrival order and the merged collapse is
//     bit-for-bit the unsharded one;
//   - single deduction: the merge happens under the tenant's one ledger,
//     so a release charges exactly once regardless of N, with unchanged
//     noise semantics (a sharded tenant and an unsharded twin with the
//     same seed release identical answers and identical spend);
//   - durable topology: a row's shard is hash(user id) mod the tenant's
//     shard count, and nothing records it — WAL row records and snapshots
//     carry the shard count only, and recovery rebuilds the partitioning
//     by routing every row again. The shard tags and placement arrays of
//     older directories are ignored (they name the same shards), and a
//     pre-shard data directory boots as a single-shard tenant with spend
//     preserved.
//
// Endpoints (all JSON; see decode.go for wire types):
//
//	POST /v1/tenants                          create a tenant (budget + accounting backend)
//	GET  /v1/tenants                          list tenant ids
//	GET  /v1/tenants/{t}                      budget (native units + (ε, δ) view) + counters
//	POST /v1/tenants/{t}/tables               create a table (schema + user column)
//	POST /v1/tenants/{t}/tables/{name}/rows   append rows (streaming ingestion)
//	POST /v1/tenants/{t}/query                dpsql SELECT under user-level DP
//	POST /v1/tenants/{t}/estimate             one estimator release on a column (scalar or grouped)
//	POST /v1/tenants/{t}/histogram            count-by-key histogram as ONE parallel-composed release
//	GET  /v1/tenants/{t}/audit                the DP audit log: one record per charged release
//	GET  /v1/stats                            server-wide counters (incl. cache hits/misses)
//	GET  /v1/healthz                          liveness
//	GET  /metrics                             Prometheus text exposition (internal/obs)
//
// Observability (docs/OBSERVABILITY.md): every release carries a release
// ID (echoed in the X-Release-Id response header) through a per-stage
// trace — queue wait, cache lookup, shard scan+merge, noise sampling,
// ledger deduction, group-commit wait, WAL fsync, audit append — feeding
// per-stage latency
// histograms on /metrics; per-tenant budget-odometer gauges report
// spend, burn rate, and projected time to exhaustion; and releases
// slower than Options.SlowRelease log one structured line with the full
// span breakdown.
package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/xrand"
)

// defaultDelta is the δ a zcdp tenant gets when the request leaves it
// unset.
const defaultDelta = 1e-6

// Options configures a Server.
type Options struct {
	// Workers bounds the number of releases executing concurrently
	// (estimators are CPU-bound; unbounded concurrency only adds
	// scheduling overhead). 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running releases
	// before the server sheds load with 503. 0 means 8×Workers.
	QueueDepth int
	// Seed makes the server's noise deterministic — tests and benchmarks
	// only; production must leave it 0 (OS entropy) or the privacy
	// guarantee is void.
	Seed uint64
	// DataDir enables durable tenant state (internal/store): every tenant
	// gets a write-ahead log plus compacted snapshots under this
	// directory, deductions are recorded durably before any answer leaves
	// the process, and Open replays the directory back into the tenant
	// registry on boot — so budget spend survives restarts instead of
	// silently refilling. Empty means in-memory only (tests, ephemeral
	// experiments).
	DataDir string
	// SnapshotEvery bounds WAL growth for durable servers: once a
	// tenant's log holds this many records past its snapshot, the
	// tenant's state is compacted after the next ingest or release.
	// 0 means 1024.
	SnapshotEvery int
	// DefaultShards is the table shard count tenants get when their
	// creation request does not name one ("shards"): each tenant table is
	// hash-partitioned by user id into this many shards, striping ingest
	// across per-shard locks and fanning release scans over the worker
	// pool. 0 means 1 (monolithic tables, the pre-shard behavior).
	DefaultShards int
	// SlowRelease is the threshold past which a release logs one
	// structured line with its release ID and full per-stage span
	// breakdown. 0 means 250ms; negative disables the log.
	SlowRelease time.Duration
	// TraceRing sizes the flight recorder: the last TraceRing completed
	// release traces are retained (plus up to TraceRing slow/errored/shed
	// traces, tail-sampled so healthy floods never evict them) and served
	// at GET /v1/traces. 0 means 256; negative disables retention.
	TraceRing int
	// Exemplars opts the /metrics rendering into OpenMetrics exemplar
	// syntax: each release/stage histogram bucket carries the most recent
	// release ID that landed in it, linking a dashboard bucket straight
	// to GET /v1/traces/{id}. Off by default because the suffix is not
	// part of the Prometheus 0.0.4 text format some scrapers pin.
	Exemplars bool
	// SLOLatency arms the self-watchdog: when the release-latency p99
	// over a window exceeds this threshold for SLOWindows consecutive
	// windows, the watchdog captures one incident bundle (CPU, heap, and
	// goroutine profiles, a /metrics scrape, the retained traces) into
	// IncidentDir. 0 disables the watchdog.
	SLOLatency time.Duration
	// SLOWindow is the latency-aggregation window (0 means 10s).
	SLOWindow time.Duration
	// SLOWindows is the number of consecutive breaching windows that
	// trigger a capture (0 means 2).
	SLOWindows int
	// IncidentDir receives incident bundles (one timestamped directory
	// per capture). Required for the watchdog to arm; relative paths are
	// relative to the process working directory.
	IncidentDir string
	// IncidentCooldown is the minimum gap between captures, bounding the
	// profiling cost of a sustained breach (0 means 10min).
	IncidentCooldown time.Duration
}

// maxTenantShards bounds a tenant's configured shard count; past this the
// per-shard bookkeeping costs more than lock striping wins.
const maxTenantShards = dpsql.MaxShards

// Server hosts tenants and serves the HTTP API. Create with Open; it is
// safe for concurrent use.
type Server struct {
	mux  *http.ServeMux
	pool *pool

	// st is the durability engine (nil for in-memory servers); snapEvery
	// is the per-tenant WAL compaction threshold; defShards is the shard
	// count tenants default to.
	st        *store.Store
	snapEvery int
	defShards int

	mu       sync.RWMutex
	tenants  map[string]*Tenant
	creating map[string]struct{} // ids reserved by in-flight creations

	// rng is the root generator; per-release generators are split off
	// under rngMu because xrand.RNG itself is single-threaded.
	rngMu sync.Mutex
	rng   *xrand.RNG

	start time.Time

	// metrics is the single source of truth for server-wide counters:
	// /v1/stats and /metrics both read the same obs instruments (the
	// old ad-hoc atomic.Int64 fields lived here). slowRel is the
	// slow-release log threshold (0 = disabled).
	metrics *metricsSet
	slowRel time.Duration

	// recorder is the flight recorder finished releases land in (nil
	// when retention is disabled); watchdog is the SLO breach monitor
	// (nil when unarmed).
	recorder *obs.Recorder
	watchdog *watchdog
}

// Tenant is one isolated customer: a database, one privacy ledger (the
// composition backend) shared by every release path, a response cache,
// and counters. A release charges led only through its releaseLedger;
// the database has no ledger of its own.
type Tenant struct {
	id         string
	db         *dpsql.DB
	led        dp.Ledger // the real composition backend (status, replay)
	accounting string    // "pure", "zcdp" or "rdp"
	windowSecs float64   // > 0 when the ledger refills on a window
	shards     int       // table shard count (>= 1; 1 for pre-shard tenants)
	cache      *respCache

	// The durability fields are zero-valued for in-memory tenants: log
	// is the WAL each release's deduction and audit record commit to
	// (releaseLedger). ddlMu keeps a table's DDL record ahead of its rows
	// records in the WAL — DDL takes the write side, ingest the read
	// side — so replay never meets rows for a table it does not know
	// yet.
	log        *store.TenantLog
	cfg        store.TenantConfig
	ddlMu      sync.RWMutex
	compacting atomic.Bool // single-flight guard for background snapshots

	// odo tracks the budget burn rate over a sliding window (the
	// odometer gauges); audit is the tenant's DP audit log — durable
	// next to the WAL, or in-memory with the same endpoint semantics.
	odo   *dp.Odometer
	audit auditSink

	queries     atomic.Int64
	estimates   atomic.Int64
	histograms  atomic.Int64
	refusals    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// Open returns a ready-to-serve Server. With Options.DataDir set it opens
// the durable store and replays every persisted tenant — snapshot plus
// WAL tail — back into the registry before serving, so recovered spend is
// at least the spend of every release answered before the restart.
func Open(opts Options) (*Server, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 8 * workers
	}
	rng := xrand.NewRandomSeed()
	if opts.Seed != 0 {
		rng = xrand.New(opts.Seed)
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 1024
	}
	defShards := opts.DefaultShards
	if defShards < 0 || defShards > maxTenantShards {
		return nil, fmt.Errorf("serve: DefaultShards must be in [0, %d], got %d", maxTenantShards, defShards)
	}
	if defShards == 0 {
		defShards = 1
	}
	slowRel := opts.SlowRelease
	if slowRel == 0 {
		slowRel = defaultSlowRelease
	} else if slowRel < 0 {
		slowRel = 0
	}
	s := &Server{
		mux:       http.NewServeMux(),
		pool:      newPool(workers, depth),
		snapEvery: snapEvery,
		defShards: defShards,
		tenants:   map[string]*Tenant{},
		creating:  map[string]struct{}{},
		rng:       rng,
		start:     time.Now(),
		metrics:   newMetricsSet(),
		slowRel:   slowRel,
	}
	if opts.TraceRing >= 0 {
		s.recorder = obs.NewRecorder(opts.TraceRing)
	}
	s.metrics.reg.SetExemplars(opts.Exemplars)
	obs.RegisterRuntimeGauges(s.metrics.reg)
	if opts.SLOLatency > 0 && opts.IncidentDir != "" {
		s.watchdog = newWatchdog(s, watchdogConfig{
			slo:      opts.SLOLatency,
			window:   opts.SLOWindow,
			windows:  opts.SLOWindows,
			dir:      opts.IncidentDir,
			cooldown: opts.IncidentCooldown,
		})
	}
	if opts.DataDir != "" {
		st, err := store.Open(opts.DataDir)
		if err != nil {
			s.pool.close()
			return nil, err
		}
		s.st = st
		// Install the metric instruments before recovery so replayed WAL
		// reopens and the first snapshot land on the registry.
		st.SetMetrics(s.metrics.storeMet)
		recs, err := st.Recover()
		if err == nil {
			for _, rec := range recs {
				var t *Tenant
				if t, err = s.restoreTenant(rec); err != nil {
					break
				}
				s.tenants[rec.ID] = t
			}
		}
		if err != nil {
			_ = st.Close()
			s.pool.close()
			return nil, err
		}
	}
	s.registerGauges()
	s.routes()
	if s.watchdog != nil {
		s.watchdog.start()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the worker pool after draining queued releases, then — for
// durable servers — compacts every tenant into a final snapshot and
// closes the store. The HTTP listener's lifecycle belongs to the caller.
func (s *Server) Close() error {
	if s.watchdog != nil {
		s.watchdog.stop()
	}
	s.pool.close()
	if s.st == nil {
		return nil
	}
	flushErr := s.Flush()
	// Audit logs are per-tenant open files the store does not track.
	s.mu.RLock()
	for _, t := range s.tenants {
		if c, ok := t.audit.(io.Closer); ok {
			_ = c.Close()
		}
	}
	s.mu.RUnlock()
	closeErr := s.st.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Workers reports the worker-pool size (for status output).
func (s *Server) Workers() int { return s.pool.workers }

// splitRNG derives an independent generator for one release.
func (s *Server) splitRNG() *xrand.RNG {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Split()
}

// Table looks up one of the tenant's tables (inspection, demo loaders).
// Writes made through it bypass the WAL, so on a durable server they
// are lost at the next restart or compaction: provision through
// CreateTable and InsertRows.
func (t *Tenant) Table(name string) (*dpsql.Table, error) { return t.db.TableByName(name) }

// CreateTenant registers a tenant with a total ε budget under pure-ε
// basic composition — the programmatic twin of POST /v1/tenants with the
// default backend.
func (s *Server) CreateTenant(id string, totalEps float64) (*Tenant, error) {
	return s.createTenant(CreateTenantRequest{ID: id, Epsilon: totalEps})
}

// CreateTenantWith registers a tenant from a full request (accounting
// backend, δ, refill window) — the programmatic twin of POST /v1/tenants.
func (s *Server) CreateTenantWith(req CreateTenantRequest) (*Tenant, error) {
	return s.createTenant(req)
}

// Ledger exposes the tenant's composition backend (native-unit
// inspection; benchmarks).
func (t *Tenant) Ledger() dp.Ledger { return t.led }

// accountingName normalizes a tenant config's accounting backend name
// ("" means "pure") — the one derivation behind both tenant creation and
// recovery.
func accountingName(cfg store.TenantConfig) string {
	if cfg.Accounting == "" {
		return "pure"
	}
	return strings.ToLower(cfg.Accounting)
}

// buildLedger constructs the composition backend a tenant config names,
// returning the δ actually in force — shared by tenant creation and
// snapshot-less ledger rebuilds.
func buildLedger(cfg store.TenantConfig) (dp.Ledger, float64, error) {
	accounting := accountingName(cfg)
	delta := cfg.Delta
	var (
		led dp.Ledger
		err error
	)
	if len(cfg.Orders) > 0 && accounting != "rdp" {
		return nil, 0, fmt.Errorf("serve: orders applies only to rdp accounting")
	}
	switch accounting {
	case "pure":
		if cfg.Delta != 0 {
			return nil, 0, fmt.Errorf("serve: delta applies only to zcdp or rdp accounting")
		}
		led, err = dp.NewBasicLedger(cfg.Epsilon)
	case "zcdp":
		if delta == 0 {
			delta = defaultDelta
		}
		led, err = dp.NewZCDPLedger(cfg.Epsilon, delta)
	case "rdp":
		if delta == 0 {
			delta = defaultDelta
		}
		led, err = dp.NewRDPLedger(cfg.Epsilon, delta, cfg.Orders)
	default:
		return nil, 0, fmt.Errorf("serve: unknown accounting backend %q (want \"pure\", \"zcdp\", or \"rdp\")", cfg.Accounting)
	}
	if err != nil {
		return nil, 0, err
	}
	if cfg.WindowSeconds < 0 {
		return nil, 0, fmt.Errorf("serve: window_seconds must be >= 0, got %v", cfg.WindowSeconds)
	}
	if cfg.WindowSeconds > 0 {
		led, err = dp.NewWindowedLedger(led, time.Duration(cfg.WindowSeconds*float64(time.Second)))
		if err != nil {
			return nil, 0, err
		}
	}
	return led, delta, nil
}

// createTenant builds the requested composition backend and registers the
// tenant around it. On a durable server the creation record is fsynced
// before the tenant is acknowledged.
func (s *Server) createTenant(req CreateTenantRequest) (*Tenant, error) {
	if req.Shards < 0 || req.Shards > maxTenantShards {
		return nil, fmt.Errorf("serve: shards must be in [0, %d], got %d", maxTenantShards, req.Shards)
	}
	shards := req.Shards
	if shards == 0 {
		shards = s.defShards
	}
	cfg := store.TenantConfig{
		Epsilon:       req.Epsilon,
		Accounting:    req.Accounting,
		Delta:         req.Delta,
		WindowSeconds: req.WindowSeconds,
		Shards:        shards,
		Orders:        req.Orders,
	}
	led, delta, err := buildLedger(cfg)
	if err != nil {
		return nil, err
	}
	accounting := accountingName(cfg)
	cfg.Accounting, cfg.Delta = accounting, delta
	if s.st != nil {
		// Tenant ids become directory names; refuse traversal early.
		if err := store.CheckTenantID(req.ID); err != nil {
			return nil, err
		}
	}
	// Reserve the id first, then do the store's fsyncs OUTSIDE s.mu: a
	// durable creation writes and syncs files, and holding the server-wide
	// lock across that would stall every request on every tenant.
	s.mu.Lock()
	if _, dup := s.tenants[req.ID]; dup {
		s.mu.Unlock()
		return nil, errTenantExists
	}
	if _, busy := s.creating[req.ID]; busy {
		s.mu.Unlock()
		return nil, errTenantExists
	}
	s.creating[req.ID] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.creating, req.ID)
		s.mu.Unlock()
	}()

	var tl *store.TenantLog
	if s.st != nil {
		tl, err = s.st.CreateTenant(req.ID, cfg)
		if err != nil {
			// Id conflicts and bad ids are the client's; everything else
			// (mkdir, open, fsync) is a server-side persistence failure and
			// must not masquerade as a config error.
			if errors.Is(err, store.ErrTenantExists) || errors.Is(err, store.ErrBadTenantID) {
				return nil, err
			}
			return nil, fmt.Errorf("%w: creating durable tenant: %v", errPersist, err)
		}
	}
	t, err := s.newTenant(req.ID, cfg, led, accounting, tl, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.tenants[req.ID] = t
	s.mu.Unlock()
	return t, nil
}

// newTenant assembles a tenant around its composition backend: a
// database with the configured shard topology holding tables, an empty
// response cache, a fresh odometer, and the audit sink. log is the
// tenant's WAL (nil on an in-memory server). A pre-shard directory
// (cfg.Shards 0) becomes a single-shard tenant and keeps behaving
// exactly as it did — new tables included.
func (s *Server) newTenant(id string, cfg store.TenantConfig, led dp.Ledger, accounting string, log *store.TenantLog, tables []dpsql.TableState) (*Tenant, error) {
	shards := max(cfg.Shards, 1)
	db := dpsql.NewDB()
	db.SetDefaultShards(shards)
	db.SetFanout(func(n int, run func(int)) { s.pool.fan(n, run) })
	for _, ts := range tables {
		if _, err := db.Import(ts); err != nil {
			return nil, err
		}
	}
	audit, err := s.openAudit(id)
	if err != nil {
		return nil, err
	}
	return &Tenant{
		id:         id,
		db:         db,
		led:        led,
		accounting: accounting,
		windowSecs: cfg.WindowSeconds,
		shards:     shards,
		cache:      newRespCache(s.metrics.cacheEvictions),
		log:        log,
		cfg:        cfg,
		odo:        dp.NewOdometer(0),
		audit:      audit,
	}, nil
}

// Tenant looks a tenant up by id — programmatic twin of GET
// /v1/tenants/{t} for embedders (demo loaders, benchmarks).
func (s *Server) Tenant(id string) (*Tenant, bool) { return s.tenantByID(id) }

// tenantByID looks a tenant up.
func (s *Server) tenantByID(id string) (*Tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[id]
	return t, ok
}

// tenantIDs returns the sorted tenant ids.
func (s *Server) tenantIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
