package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dp"
	"repro/internal/store"
)

// errPersist marks a durability failure on a release path: the in-memory
// charge stands (conservative) but the answer is withheld, because an
// answer whose deduction is not on disk could be refunded by a crash.
var errPersist = errors.New("serve: persistence failure")

// releaseLedger is the ledger one release charges through — the only
// way serve charges a tenant, so every charge belongs to a release and
// is audited by construction. It wraps the tenant's composition backend
// with the per-deduction concerns:
//
//   - durability (durable tenants): the deduction and the release's
//     audit record are committed to the write-ahead log as ONE
//     group-commit entry — flushed and fsynced — after the in-memory
//     check-and-deduct succeeds and before Spend returns, so no
//     mechanism ever runs (and no answer is ever released) on a
//     deduction a crash could forget, and no durable charge ever lacks
//     its audit line. No tenant lock is taken: snapshots are compacted
//     from the WAL alone, so a deduction reaches a snapshot only through
//     its own WAL record and can never be counted twice. If the log
//     write fails, Spend fails with errPersist while the in-memory
//     charge stands: over-counting is the conservative direction, and
//     the log is fail-stop anyway (ErrLogBroken) so the tenant degrades
//     to 500s rather than silently un-durable releases.
//   - telemetry: the whole Spend is the trace's "deduct" span; the
//     in-memory deduct, the time parked on the commit barrier, and the
//     shared batch fsync are timed into the ledger_deduct /
//     group_commit_wait / wal_fsync stage histograms and land as child
//     spans under "deduct"; and the budget odometer observes the new
//     cumulative spend (feeding the burn-rate and time-to-exhaustion
//     gauges).
//   - attribution: a successful Spend records the charged cost on the
//     release (rel.spent, rel.cost), which is what audits an in-memory
//     tenant's release (auditRelease).
//
// dpsql calls Spend through ExecOpts.Ledger; the scalar estimate path
// calls it directly.
type releaseLedger struct {
	s   *Server
	t   *Tenant
	rel *release
}

func (l *releaseLedger) Spend(c dp.Cost) (err error) {
	s, t, rel := l.s, l.t, l.rel
	start := time.Now()
	defer func() {
		rel.tr.Observe("deduct", time.Since(start))
		if err == nil {
			rel.spent, rel.cost = true, c
		}
	}()
	if err := t.led.Spend(c); err != nil {
		return err
	}
	d := time.Since(start)
	s.metrics.stageSeconds.With("ledger_deduct").Observe(d.Seconds())
	rel.tr.ObserveChild("ledger_deduct", "deduct", d)
	if t.log != nil {
		// CommitCharge parks on the tenant's group-commit barrier: one
		// shared fsync acks every charge batched with this one. Waited is
		// the parked time before the batch started; Fsync is the shared
		// barrier itself.
		ct, err := t.log.CommitCharge(c, newAuditRecord(t, rel, c))
		if err != nil {
			return fmt.Errorf("%w: recording deduction and audit line (budget charged, release withheld): %v", errPersist, err)
		}
		s.metrics.stageSeconds.With("group_commit_wait").Observe(ct.Waited.Seconds())
		s.metrics.stageSeconds.With("wal_fsync").Observe(ct.Fsync.Seconds())
		// The nesting mirrors the barrier's anatomy: the entry parks
		// (group_commit_wait, under deduct), then the batch's shared
		// fsync clears it (wal_fsync, under group_commit_wait).
		rel.tr.ObserveChild("group_commit_wait", "deduct", ct.Waited)
		rel.tr.ObserveChild("wal_fsync", "group_commit_wait", ct.Fsync)
	}
	t.odo.Observe(t.led.Spent())
	return nil
}

// restoreTenant rebuilds one live tenant from recovered durable state:
// the ledger from the snapshot state (or fresh from the creation config
// when the tenant never compacted), with every WAL-tail deduction
// force-replayed on top — replay never refuses a deduction that was
// already answered, even past the ceiling — and the tables imported
// through the same validation a live request passes.
func (s *Server) restoreTenant(rec *store.RecoveredTenant) (*Tenant, error) {
	var (
		led dp.Ledger
		err error
	)
	accounting := rec.Config.Accounting
	if rec.Ledger != nil {
		led, err = dp.RestoreLedger(*rec.Ledger)
	} else {
		led, accounting, _, err = buildLedger(rec.Config)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: restoring tenant %q: %w", rec.ID, err)
	}
	sl, ok := led.(dp.StatefulLedger)
	if !ok {
		return nil, fmt.Errorf("serve: restoring tenant %q: ledger %T is not replayable", rec.ID, led)
	}
	for _, c := range rec.Deducts {
		if err := sl.ForceSpend(c); err != nil {
			return nil, fmt.Errorf("serve: replaying deduction for tenant %q: %w", rec.ID, err)
		}
	}
	t, err := s.newTenant(rec.ID, rec.Config, led, accounting, rec.Log, rec.Tables)
	if err != nil {
		return nil, fmt.Errorf("serve: restoring tenant %q: %w", rec.ID, err)
	}
	return t, nil
}

// replayLedger rebuilds a ledger state from a prior snapshot state (or
// fresh from the tenant config when there is none) plus the deductions
// recorded in sealed WAL segments — the serve-side half of off-path
// compaction, mirroring restoreTenant's recovery semantics exactly:
// replay force-spends past the ceiling rather than refuse a deduction
// that was already answered. It reads only its arguments, never live
// tenant state, so compaction can run concurrently with releases.
func (s *Server) replayLedger(cfg store.TenantConfig, prev *dp.LedgerState, deducts []dp.Cost) (dp.LedgerState, error) {
	var (
		led dp.Ledger
		err error
	)
	if prev != nil {
		led, err = dp.RestoreLedger(*prev)
	} else {
		led, _, _, err = buildLedger(cfg)
	}
	if err != nil {
		return dp.LedgerState{}, err
	}
	sl, ok := led.(dp.StatefulLedger)
	if !ok {
		return dp.LedgerState{}, fmt.Errorf("serve: ledger %T is not replayable", led)
	}
	for _, c := range deducts {
		if err := sl.ForceSpend(c); err != nil {
			return dp.LedgerState{}, err
		}
	}
	return sl.Snapshot()
}

// compactTenant folds one tenant's WAL into a fresh snapshot without
// stalling the tenant: the log seals its active tail (microseconds under
// the log lock), then the merge reads only immutable files — no tenant
// lock, no shard locks — while releases, ingests, and group commit
// proceed at full speed. The duration lands on the "compact" stage
// histogram (store's CompactionSeconds histogram times the same interval
// from inside the log, so the two views stay in sync).
func (s *Server) compactTenant(t *Tenant) error {
	if t.log == nil {
		return nil
	}
	t0 := time.Now()
	err := t.log.Compact(t.cfg, s.replayLedger)
	s.metrics.stageSeconds.With("compact").Observe(time.Since(t0).Seconds())
	return err
}

// CompactTenant compacts one tenant's WAL into a fresh snapshot off the
// hot path — the operational/benchmark entry point for forcing the
// steady-state compaction that maybeSnapshot otherwise triggers by
// threshold. No-op for in-memory tenants.
func (s *Server) CompactTenant(id string) error {
	t, ok := s.tenantByID(id)
	if !ok {
		return fmt.Errorf("serve: unknown tenant %q", id)
	}
	return s.compactTenant(t)
}

// maybeSnapshot compacts a tenant whose WAL outgrew the threshold, on a
// background goroutine: the triggering request's answer is already
// computed and charged, so it must not wait out a segment replay. The
// single-flight guard keeps bursts from piling up goroutines per tenant
// (the log's own compactMu additionally serializes against explicit
// CompactTenant calls). Best-effort: a failed compaction leaves the WAL
// segments authoritative, costing replay time, never recorded spend.
func (s *Server) maybeSnapshot(t *Tenant) {
	if t.log == nil || t.log.RecordsSinceSnapshot() < s.snapEvery {
		return
	}
	if !t.compacting.CompareAndSwap(false, true) {
		return // a compaction is already in flight
	}
	go func() {
		defer t.compacting.Store(false)
		_ = s.compactTenant(t)
	}()
}

// Flush compacts every tenant into a fresh snapshot (durable servers
// only) — the graceful-shutdown path, also exposed for benchmarks and
// operational checkpoints. It is the same compaction the background
// trigger runs, so its duration lands on the "compact" stage.
func (s *Server) Flush() error {
	if s.st == nil {
		return nil
	}
	s.mu.RLock()
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	var firstErr error
	for _, t := range tenants {
		if err := s.compactTenant(t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DataDir reports the durable data directory ("" for in-memory servers).
func (s *Server) DataDir() string {
	if s.st == nil {
		return ""
	}
	return s.st.Dir()
}
