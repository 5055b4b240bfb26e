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
// charged gets exactly one audit record — appended after the charge
// lands and before the answer is acknowledged, so the log replays the
// tenant's real spend history (budget-refused attempts and cache replays
// charge nothing and are absent by construction). Durable tenants write
// store.AuditLog (durable on the WAL's group-commit barrier); in-memory
// tenants get memAudit so the endpoint behaves identically either way.

// auditSink is what a tenant's audit log must provide. store.AuditLog is
// the durable implementation; memAudit the in-memory one.
type auditSink interface {
	Append(rec *store.AuditRecord) error
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

// auditRelease appends the audit line for a CHARGED release. The caller
// invokes it on every path where rel.spent is true — success or
// mechanism failure after the deduction — and must withhold the answer
// if it errors (a durable append failure means the acknowledged-implies-
// audited invariant cannot hold, the same class as a WAL failure).
//
// NativeCost is the charge in the ledger's unit when that charge is a
// scalar: pure keeps ε; zcdp records ρ (the native ρ for Gaussian
// releases, ε²/2 for pure ones). An rdp charge is a per-order vector —
// no scalar adds up — so NativeCost is omitted and BestOrder records the
// order certifying the tenant's cumulative spend after this release.
func (s *Server) auditRelease(t *Tenant, rel *release) error {
	rec := store.AuditRecord{
		ReleaseID: rel.id,
		Path:      rel.path,
		Mechanism: rel.mech,
		Cost:      rel.cost,
		Unit:      string(t.led.Unit()),
	}
	switch t.accounting {
	case "zcdp":
		if rel.cost.Rho > 0 {
			rec.NativeCost = rel.cost.Rho
		} else {
			rec.NativeCost = dp.PureToZCDP(rel.cost.Eps)
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
		rec.NativeCost = rel.cost.Eps
	}
	t0 := time.Now()
	if err := t.audit.Append(&rec); err != nil {
		return fmt.Errorf("%w: recording audit line (budget charged, release withheld): %v", errPersist, err)
	}
	if t.log == nil {
		// Durable appends count themselves through store.Metrics.
		s.metrics.auditRecords.Inc()
	}
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
