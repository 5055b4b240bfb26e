package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/dp"
	"repro/internal/store"
)

// The serve half of the DP audit log: every release the ledger actually
// charged gets exactly one audit record, written before the answer is
// acknowledged, so the log replays the tenant's real spend history
// (budget-refused attempts and cache replays charge nothing and are
// absent by construction). Serve charges a tenant only through a
// release's releaseLedger, so no charge lacks a release to audit.
// Durable tenants write store.AuditLog: the record commits with the
// deduction as one WAL barrier entry (releaseLedger.Spend), so one fsync
// covers both. In-memory tenants append to memAudit after the mechanism
// (auditRelease), so the endpoint behaves identically either way.

// auditSink is what the audit endpoint reads. store.AuditLog is the
// durable implementation; memAudit the in-memory one.
type auditSink interface {
	Page(after uint64, limit int) ([]store.AuditRecord, error)
	Len() uint64
}

// memAuditMax bounds the records an in-memory tenant retains (newest
// kept). Len still counts every record ever appended, so pagination
// cursors and the spend-matching invariant stay monotone; a page that
// would reach into the discarded prefix simply starts at the oldest
// retained record.
const memAuditMax = 4096

// memAudit is the in-memory auditSink: same seq discipline as the
// durable log, bounded retention, no durability.
type memAudit struct {
	mu   sync.Mutex
	seq  uint64
	recs []store.AuditRecord
}

func (a *memAudit) Append(rec *store.AuditRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Same hard invariant the durable log enforces in reconcile: audit
	// seqs are gap-free. The newest retained record must sit exactly at
	// the counter; anything else means the history this sink attests to
	// has a hole, and appending past it would silently legitimize it.
	if n := len(a.recs); n > 0 && a.recs[n-1].Seq != a.seq {
		return fmt.Errorf("serve: audit seq gap: newest record at %d, counter at %d", a.recs[n-1].Seq, a.seq)
	}
	a.seq++
	rec.Seq = a.seq
	if rec.TimeUnix == 0 {
		rec.TimeUnix = time.Now().UnixNano()
	}
	a.recs = append(a.recs, *rec)
	if len(a.recs) > memAuditMax {
		a.recs = append(a.recs[:0:0], a.recs[len(a.recs)-memAuditMax:]...)
	}
	return nil
}

func (a *memAudit) Page(after uint64, limit int) ([]store.AuditRecord, error) {
	if limit <= 0 {
		return nil, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []store.AuditRecord
	for _, r := range a.recs {
		if r.Seq <= after {
			continue
		}
		out = append(out, r)
		if len(out) == limit {
			break
		}
	}
	return out, nil
}

func (a *memAudit) Len() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// newAuditRecord is the audit record of one release charged cost c.
// NativeCost is the charge in the ledger's unit when that charge is a
// scalar: pure keeps ε; zcdp records ρ (the native ρ for Gaussian
// releases, ε²/2 for pure ones). An rdp charge is a per-order vector —
// no scalar adds up — so NativeCost is omitted and BestOrder records the
// order certifying the tenant's cumulative spend after this release.
func newAuditRecord(t *Tenant, rel *release, c dp.Cost) *store.AuditRecord {
	rec := &store.AuditRecord{
		ReleaseID: rel.id,
		Path:      rel.path,
		Mechanism: rel.mech,
		Cost:      c,
		Unit:      string(t.led.Unit()),
	}
	switch t.accounting {
	case "zcdp":
		if c.Rho > 0 {
			rec.NativeCost = c.Rho
		} else {
			rec.NativeCost = dp.PureToZCDP(c.Eps)
		}
	case "rdp":
		inner := t.led
		if wl, ok := inner.(*dp.WindowedLedger); ok {
			inner = wl.Inner()
		}
		if b, ok := inner.(*dp.RDPLedger); ok {
			rec.BestOrder = b.BestOrder()
		}
	default: // pure
		rec.NativeCost = c.Eps
	}
	return rec
}

// auditRelease appends an in-memory tenant's audit line for a CHARGED
// release. serveRelease calls it once for every release whose rel.spent
// is set — success or mechanism failure after the deduction — and
// withholds the answer if it errors. On a durable tenant it does
// nothing: the record already rode the deduction's WAL barrier.
//
// The in-memory append runs after the mechanism, outside the worker-pool
// job, rather than at charge time: once the retention window is full,
// memAudit.Append copies all memAuditMax records, and inside the job that
// copy raised mixed-workload release p50 by 7–27% (5 of 5 benchmark
// pairs). The append can join the charge once the window is a ring.
func (s *Server) auditRelease(t *Tenant, rel *release) error {
	mem, ok := t.audit.(*memAudit)
	if !ok {
		return nil
	}
	t0 := time.Now()
	if err := mem.Append(newAuditRecord(t, rel, rel.cost)); err != nil {
		return fmt.Errorf("%w: recording audit line (budget charged, release withheld): %v", errPersist, err)
	}
	s.metrics.auditRecords.Inc()
	s.observeStage(rel, "audit", time.Since(t0))
	return nil
}

// openAudit builds the tenant's audit sink: the durable log on a durable
// server, memAudit otherwise.
func (s *Server) openAudit(id string) (auditSink, error) {
	if s.st == nil {
		return &memAudit{}, nil
	}
	al, err := s.st.OpenAudit(id)
	if err != nil {
		return nil, fmt.Errorf("%w: opening audit log: %v", errPersist, err)
	}
	return al, nil
}

// ---------- the audit endpoint ----------

const (
	auditDefaultLimit = 100
	auditMaxLimit     = 1000
)

// handleAudit serves GET /v1/tenants/{tenant}/audit?after=SEQ&limit=N —
// the charged-release history, oldest first, paginated by seq cursor.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	after := uint64(0)
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_cursor", fmt.Errorf("serve: after must be a non-negative integer: %v", err))
			return
		}
		after = n
	}
	limit := auditDefaultLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad_limit", fmt.Errorf("serve: limit must be a positive integer, got %q", v))
			return
		}
		limit = n
		if limit > auditMaxLimit {
			limit = auditMaxLimit
		}
	}
	recs, err := t.audit.Page(after, limit)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "audit_failed", err)
		return
	}
	resp := AuditResponse{Tenant: t.id, Total: t.audit.Len(), Records: recs}
	if len(recs) == limit && recs[len(recs)-1].Seq < resp.Total {
		resp.NextAfter = recs[len(recs)-1].Seq
	}
	writeJSON(w, http.StatusOK, resp)
}
