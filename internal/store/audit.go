package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dp"
)

// The DP audit log: one append-only file per tenant holding one CRC'd
// JSON line per *charged* release — the operator's replayable record of
// every ε ever spent, keyed by release ID. It complements the WAL
// rather than duplicating it: the WAL's deduct records are the
// machine-replayed ledger state (costs only, no identity), while the
// audit log carries the operator-facing story (which release, which
// mechanism, when, at what best RDP order) and is never replayed into
// state, so its format can grow fields freely.
//
// Durability: the serve layer commits each charged release's record
// together with its deduction, as one TenantLog.CommitCharge entry on
// the tenant WAL's commit barrier, before the mechanism runs and so
// before the answer is acknowledged. Every acknowledged release has its
// audit record durable, and a durable charge always has its record (a
// crash can leave a record for a charged-but-unanswered release, never
// the reverse; over-recording matches the WAL's over-counting
// direction). The line is written to this file BUFFERED, and a copy
// rides inside the batch WAL record next to the cost — the batch's
// single fsync makes both durable, zero extra fsyncs. Append submits a
// record alone on the same barrier. The buffered file is hardened
// (flushed + fsynced) before Compact deletes the segments holding those
// copies, and at Close; after a crash, OpenAudit reconciles the file
// against the WAL's batch copies (reconcile), re-appending lines the
// buffer lost. Seqs stay contiguous because they are assigned in
// barrier order and both files truncate tail-only.

// auditName is the per-tenant audit file, next to wal.log.
const auditName = "audit.log"

// AuditRecord is one charged release. Cost is the release's native
// request cost (ε or ρ as the client asked); NativeCost is the charge
// in the LEDGER's unit when that charge is a scalar (pure: ε itself;
// zcdp: ρ = ε²/2 for pure releases, ρ directly for native ones) — rdp
// charges a per-order vector, so NativeCost is omitted and BestOrder
// records the order certifying the tenant's spend after this release.
type AuditRecord struct {
	Seq        uint64  `json:"seq"`
	TimeUnix   int64   `json:"ts_unix_nano"`
	ReleaseID  string  `json:"release_id"`
	Path       string  `json:"path"`      // "query", "estimate", or "histogram"
	Mechanism  string  `json:"mechanism"` // "sql", or the estimate stat
	Cost       dp.Cost `json:"cost"`
	Unit       string  `json:"unit"` // the ledger's native unit
	NativeCost float64 `json:"native_cost,omitempty"`
	BestOrder  float64 `json:"best_order,omitempty"`
}

// AuditLog is one tenant's open audit file. Appends are serialized by
// the WAL's commit barrier; a write error makes the log fail-stop like
// the WAL (a torn line must never be followed by an intact one, or the
// tail-truncation rule at open would silently drop it).
type AuditLog struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	w      *bufio.Writer
	seq    uint64 // last assigned record seq (== line count: tail-only truncation)
	broken bool
	met    *Metrics
	gc     *groupCommitter // the tenant WAL's commit barrier Append parks on
}

// auditBufSize is the audit writer's buffer; appends accumulate
// here between hardenings (their durable copy rides the WAL batch).
const auditBufSize = 32 << 10

// OpenAudit opens (creating if absent) the audit log of a tenant whose
// WAL is open, truncating a torn tail. Call it after CreateTenant or
// Recover has opened the tenant's log; a tenant without one is refused,
// since its appends would have no commit barrier to become durable on.
func (s *Store) OpenAudit(id string) (*AuditLog, error) {
	if err := CheckTenantID(id); err != nil {
		return nil, err
	}
	tl, ok := s.Tenant(id)
	if !ok {
		return nil, fmt.Errorf("store: audit log for %q: tenant log not open", id)
	}
	s.mu.Lock()
	met := s.metrics
	s.mu.Unlock()
	path := filepath.Join(s.dir, id, auditName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: reading audit log for %q: %w", id, err)
	}
	// Scan for the intact prefix and truncate at the first damaged line.
	// Lines are buffered, so a crash can tear any unhardened suffix; every
	// record in it has its durable copy in a WAL batch record, which the
	// reconcile below re-appends. (Unlike the WAL there is no
	// corrupt-vs-torn distinction to draw — the WAL, not this file, is
	// what proves a record was acknowledged.)
	goodEnd, n := 0, uint64(0)
	for fr := range frames(data) {
		if fr.body == nil {
			break
		}
		goodEnd, n = fr.end, n+1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening audit log for %q: %w", id, err)
	}
	if goodEnd < len(data) {
		if err := f.Truncate(int64(goodEnd)); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("store: truncating torn audit tail for %q: %w", id, err)
		}
	}
	a := &AuditLog{path: path, f: f, w: bufio.NewWriterSize(f, auditBufSize), seq: n, met: met, gc: tl.gc}
	// Attach to the tenant's open WAL so audit appends ride its commit
	// barrier (one fsync covers deduction + audit) and compaction hardens
	// this file before deleting segments. Then reconcile: batch WAL
	// records may hold audit lines a crash caught in this file's buffer.
	tl.attachAudit(a)
	s.mu.Lock()
	pend := s.pendingAudits[id]
	delete(s.pendingAudits, id)
	s.mu.Unlock()
	if err := a.reconcile(pend); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: reconciling audit log for %q: %w", id, err)
	}
	return a, nil
}

// reconcile re-appends audit records recovered from WAL batch copies
// that the file itself lost from its buffer in a crash — preserving
// their original seq and timestamp. Records the file already holds
// (seq <= line count) are skipped; the survivors are written buffered,
// because the WAL still carries them until the next compaction hardens
// this file first.
func (a *AuditLog) reconcile(pend []AuditRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range pend {
		rec := &pend[i]
		if rec.Seq <= a.seq {
			continue
		}
		if rec.Seq != a.seq+1 {
			return fmt.Errorf("audit seq gap: file at %d, wal batch carries %d", a.seq, rec.Seq)
		}
		if err := a.writeLocked(rec); err != nil {
			return err
		}
		a.seq = rec.Seq
	}
	return nil
}

// Append records one audit record durably, with no deduction beside it
// — the caller may acknowledge the release only after this succeeds.
// The append parks on the WAL's group-commit barrier; the batch's one
// fsync covers it. A charged release uses TenantLog.CommitCharge
// instead, so its record and its deduction share one entry.
func (a *AuditLog) Append(rec *AuditRecord) error {
	_, err := a.gc.submit(nil, rec)
	return err
}

// appendBuffered assigns the record's seq and timestamp and writes its
// line to the buffer WITHOUT fsync. The committer calls it and puts a
// copy of the record in the batch WAL record, which is what makes it
// durable.
func (a *AuditLog) appendBuffered(rec *AuditRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.broken || a.f == nil {
		return ErrLogBroken
	}
	rec.Seq = a.seq + 1
	if rec.TimeUnix == 0 {
		rec.TimeUnix = time.Now().UnixNano()
	}
	if err := a.writeLocked(rec); err != nil {
		return err
	}
	a.seq = rec.Seq
	if m := a.met; m != nil && m.AuditRecords != nil {
		m.AuditRecords.Inc()
	}
	return nil
}

// writeLocked frames and buffers one record. Callers hold a.mu.
func (a *AuditLog) writeLocked(rec *AuditRecord) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding audit record: %w", err)
	}
	if _, err := writeFrame(a.w, body); err != nil {
		a.broken = true
		return fmt.Errorf("store: appending audit record: %w", err)
	}
	return nil
}

// harden flushes the buffer and fsyncs the file — the audit log's own
// durability barrier, paid only at compaction and close, since appends
// ride the WAL barrier.
func (a *AuditLog) harden() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hardenLocked()
}

func (a *AuditLog) hardenLocked() error {
	if a.broken || a.f == nil {
		return ErrLogBroken
	}
	t0 := time.Now()
	if err := a.w.Flush(); err != nil {
		a.broken = true
		return fmt.Errorf("store: flushing audit log: %w", err)
	}
	if err := a.f.Sync(); err != nil {
		a.broken = true
		return fmt.Errorf("store: syncing audit log: %w", err)
	}
	if m := a.met; m != nil && m.AuditFsyncSeconds != nil {
		m.AuditFsyncSeconds.Observe(time.Since(t0).Seconds())
	}
	return nil
}

// Len reports how many records the log holds. Seqs are assigned 1..Len
// contiguously (truncation is tail-only), so Len is also the last seq.
func (a *AuditLog) Len() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// Page returns up to limit records with Seq > after, in order — the
// pagination contract of the audit endpoint (pass the last record's seq
// back as after to continue). Reads re-scan the file: audit reads are
// an operator workflow, not a hot path, and scanning keeps the open log
// O(1) in memory.
func (a *AuditLog) Page(after uint64, limit int) ([]AuditRecord, error) {
	if limit <= 0 {
		return nil, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil, ErrLogBroken
	}
	// Appends may still be sitting in the buffer; reads must see
	// every acknowledged record (their durability is the WAL's problem,
	// their visibility is ours).
	if err := a.w.Flush(); err != nil {
		a.broken = true
		return nil, fmt.Errorf("store: flushing audit log: %w", err)
	}
	data, err := os.ReadFile(a.path)
	if err != nil {
		return nil, fmt.Errorf("store: reading audit log: %w", err)
	}
	var out []AuditRecord
	for fr := range frames(data) {
		if fr.body == nil || len(out) == limit {
			break // a full page, or a tear: only the tail being appended right now
		}
		var rec AuditRecord
		if err := json.Unmarshal(fr.body, &rec); err != nil {
			return nil, fmt.Errorf("store: decoding audit record: %w", err)
		}
		if rec.Seq > after {
			out = append(out, rec)
		}
	}
	return out, nil
}

// Close hardens (flush + fsync) and closes the file.
func (a *AuditLog) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	hardenErr := error(nil)
	if !a.broken {
		hardenErr = a.hardenLocked()
	}
	closeErr := a.f.Close()
	a.f = nil
	if hardenErr != nil {
		return hardenErr
	}
	return closeErr
}
