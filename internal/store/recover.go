package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dp"
	"repro/internal/dpsql"
)

// RecoveredTenant is one tenant's state reconstructed from its durable
// history (snapshot, sealed segments, WAL tail; see readSealed), plus its
// reopened log. The caller (the serve layer) rebuilds the live ledger
// from Ledger (or fresh from Config when Ledger is nil — no snapshot was
// ever written) and then force-replays Deducts on top, so recovered
// spend is the snapshot's spend plus every deduction recorded after it.
type RecoveredTenant struct {
	ID      string
	Config  TenantConfig
	Ledger  *dp.LedgerState // nil when no snapshot exists
	Tables  []dpsql.TableState
	Deducts []dp.Cost
	Log     *TenantLog
}

// Recover scans the data directory and reconstructs every tenant,
// reopening each WAL for appending (truncating a torn tail first).
// Tenant directories whose WAL holds no durable creation record are
// skipped: the creation was never acknowledged. A corrupt snapshot fails
// recovery loudly — proceeding would refill the tenant's budget.
func (s *Store) Recover() ([]*RecoveredTenant, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []*RecoveredTenant
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := s.recoverTenant(e.Name())
		if err != nil {
			// Logs recovered before the failure are already registered, so
			// the caller's Store.Close() releases their file handles.
			return nil, err
		}
		if rec != nil {
			// Register immediately, not after the loop: a failure on a
			// later tenant must not leak this one's reopened WAL.
			s.mu.Lock()
			s.logs[rec.ID] = rec.Log
			s.mu.Unlock()
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// history is a tenant's durable state folded from its snapshot (the
// replay floor) and the WAL records above it: readSealed builds it from
// the snapshot and sealed segments, and recovery folds the tail into it.
type history struct {
	RecoveredTenant
	floor      uint64        // the snapshot's seq: records at or below it are covered
	last       uint64        // the newest seq read, or the floor if higher
	haveConfig bool          // a snapshot or a create record supplied Config
	audits     []AuditRecord // batch audit copies, covered records' included
}

// readSealed loads a tenant's sealed history: the snapshot, then segs
// oldest first, under one set of rules for every caller (Recover passes
// every segment, Compact the ones above its floor). Every byte of a
// sealed segment was fsynced before the seal's rename, so a segment has
// no torn-tail class: ANY damage — a bad line, a missing final newline,
// a seq that does not rise — is media corruption that may sit before
// acknowledged deductions, and the read refuses (ErrCorruptWAL). A
// corrupt snapshot refuses too (ErrCorruptSnapshot): proceeding would
// refill the budget.
func readSealed(dir, id string, segs []walSegment) (*history, error) {
	h := &history{RecoveredTenant: RecoveredTenant{ID: id}}
	body, err := os.ReadFile(filepath.Join(dir, snapName))
	switch {
	case err == nil:
		var snap TenantSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return nil, fmt.Errorf("%w: tenant %q: %v", ErrCorruptSnapshot, id, err)
		}
		h.Config, h.Ledger, h.Tables = snap.Config, &snap.Ledger, snap.Tables
		h.floor, h.haveConfig = snap.Seq, true
	case os.IsNotExist(err):
		// The tenant never compacted: the oldest segment or the tail
		// holds its create record.
	default:
		return nil, fmt.Errorf("store: reading snapshot for %q: %w", id, err)
	}
	last := uint64(0)
	for _, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return nil, fmt.Errorf("store: reading segment for %q: %w", id, err)
		}
		name, end := filepath.Base(sg.path), 0
		for fr := range frames(data) {
			r, ok := fr.record()
			if !ok {
				return nil, fmt.Errorf("%w: tenant %q segment %s at byte %d", ErrCorruptWAL, id, name, fr.off)
			}
			if r.Seq <= last {
				return nil, fmt.Errorf("%w: tenant %q segment %s seq %d after %d", ErrCorruptWAL, id, name, r.Seq, last)
			}
			last, end = r.Seq, fr.end
			h.apply(r)
		}
		if end < len(data) {
			return nil, fmt.Errorf("%w: tenant %q segment %s truncated", ErrCorruptWAL, id, name)
		}
	}
	h.last = max(h.floor, last)
	return h, nil
}

// recoverTenant rebuilds one tenant. Returns (nil, nil) for a directory
// holding no acknowledged tenant.
func (s *Store) recoverTenant(id string) (*RecoveredTenant, error) {
	dir := filepath.Join(s.dir, id)
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing segments for %q: %w", id, err)
	}
	// Every segment, covered ones included: compaction publishes the
	// snapshot before it hardens the audit file, so a covered segment may
	// hold the only durable copy of a buffered audit line.
	h, err := readSealed(dir, id, segs)
	if err != nil {
		return nil, err
	}

	// Replay the WAL tail: records with seq > the floor, stopping at the
	// first torn or corrupt line. A bad region is only truncated away
	// when NOTHING intact follows it — the crash model (buffered appends
	// torn mid-write) can damage only the un-fsynced tail, so an intact
	// record after damage means media corruption that may sit before an
	// acknowledged deduction, and recovery refuses loudly instead of
	// silently under-counting spend.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: reading wal for %q: %w", id, err)
	}
	// The seal point the reopened log resumes from: the seq just before
	// the tail's first record (whether or not the snapshot covers it),
	// or the newest sealed seq for an empty tail.
	tailStart, sawTail := h.last, false
	goodEnd := 0
	for fr := range frames(data) {
		r, ok := fr.record()
		if !ok {
			if anyIntactSyncedRecord(data[fr.end:]) {
				return nil, fmt.Errorf("%w: tenant %q at byte %d", ErrCorruptWAL, id, fr.off)
			}
			break // torn tail: truncating drops only unacknowledged records
		}
		if !sawTail {
			tailStart, sawTail = r.Seq-1, true
		}
		// A tail record at or below the floor is an intact leftover of a
		// crash between snapshot publication and WAL truncation — a shape
		// the synchronous snapshot writer of earlier versions left;
		// Compact seals the tail first, so its covered records are
		// segments. apply skips it but for its batch audit copies.
		if r.Seq > h.floor {
			if r.Seq <= h.last {
				// Sequence regression among intact lines: not a crash shape.
				return nil, fmt.Errorf("%w: tenant %q seq %d after %d", ErrCorruptWAL, id, r.Seq, h.last)
			}
			h.last = r.Seq
		}
		h.apply(r)
		goodEnd = fr.end
	}
	if !h.haveConfig {
		// No snapshot and no durable creation record: the tenant was never
		// acknowledged (a crash between Mkdir and the synced create
		// append). Skip it — and remove the husk if it holds nothing but
		// store-written files, or re-creating the same tenant id would
		// hit the existing directory and 409 forever. An EMPTY directory
		// is ambiguous (it could be the operator's, freshly made) and is
		// left alone; CreateTenant adopts empty directories instead, so
		// the id does not wedge either way. Anything else in the
		// directory is not ours to delete.
		if onlyStoreFiles(dir) {
			_ = os.RemoveAll(dir)
		}
		return nil, nil
	}
	// O_APPEND is load-bearing beyond convenience: the handle opens at
	// offset 0 and the Truncate below cuts any torn tail, and only append
	// mode guarantees every write lands at the (possibly truncated) EOF —
	// never over intact records, never past EOF leaving a zero-filled
	// hole that the next recovery reads as damage.
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal for %q: %w", id, err)
	}
	if err := f.Truncate(int64(goodEnd)); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: truncating torn wal for %q: %w", id, err)
	}
	s.mu.Lock()
	met := s.metrics
	if len(h.audits) > 0 {
		// Audit copies recovered from batch records wait here until
		// OpenAudit reconciles them against the audit file's intact
		// prefix.
		if s.pendingAudits == nil {
			s.pendingAudits = map[string][]AuditRecord{}
		}
		s.pendingAudits[id] = h.audits
	}
	s.mu.Unlock()
	h.Log = newTenantLog(id, dir, f, met, h.last, h.floor, tailStart, segs)
	return &h.RecoveredTenant, nil
}

// apply folds one intact WAL record into the history — the one fold
// behind sealed-segment replay, tail replay and compaction. A record at
// or below the floor is covered: the snapshot already holds its effects
// (the idempotence guard), so it is skipped — except a batch record's
// audit copies, which must still reach the audit file if a crash landed
// before compaction hardened it (reconciliation skips ones the file
// already has). Unknown record types from a future version are kept but
// not replayed.
func (h *history) apply(r record) {
	if r.Seq <= h.floor {
		if r.Type == recBatch {
			h.audits = append(h.audits, r.Audits...)
		}
		return
	}
	switch r.Type {
	case recCreate:
		if r.Config != nil && !h.haveConfig {
			h.Config, h.haveConfig = *r.Config, true
		}
	case recTable:
		if r.Table != nil {
			h.Tables = append(h.Tables, *r.Table)
		}
	case recRows:
		// Rows into a table replay does not know are dropped, not
		// fatal: rows are the tolerated-loss class, and refusing to
		// boot over a data batch would hold the ledger — the part that
		// must recover — hostage to it. Rows carry no placement (the
		// importer routes each by user-id hash); an old record's shard tag
		// is ignored.
		if ti := findTable(h.Tables, r.RowsTable); ti >= 0 {
			tb := &h.Tables[ti]
			tb.Rows = append(tb.Rows, r.Rows...)
		}
	case recDeduct:
		if r.Cost != nil {
			h.Deducts = append(h.Deducts, *r.Cost)
		}
	case recBatch:
		// A group-commit batch: every deduction it carries was acked by
		// one shared fsync, so all replay into spend; its audit copies
		// are stashed for OpenAudit to reconcile into the (buffered,
		// possibly behind) audit file. The whole batch is one CRC'd
		// line, so a tear drops it atomically — never a prefix.
		h.Deducts = append(h.Deducts, r.Costs...)
		h.audits = append(h.audits, r.Audits...)
	}
}

// anyIntactSyncedRecord reports whether rest holds an intact record of a
// FSYNCED class (deduct, create, DDL) — the signal that damage earlier in
// the file sits inside an fsync-hardened region, i.e. media corruption
// rather than a torn tail. Intact ROWS records after damage prove
// nothing: they are the buffered, never-fsynced class, and out-of-order
// dirty-page writeback on power loss can legitimately persist a later
// rows page while tearing an earlier one — everything past the last
// fsync barrier is unacknowledged, so truncating there stays safe. (The
// one false refusal this rule admits — a crash during the fsync of the
// file's final deduct, persisted out of order — trades availability for
// the never-under-count invariant, the right direction.)
func anyIntactSyncedRecord(rest []byte) bool {
	for fr := range frames(rest) {
		if r, ok := fr.record(); ok && r.Type != recRows {
			return true
		}
	}
	return false
}

// onlyStoreFiles reports whether a tenant directory is non-empty and
// contains nothing the store did not write itself (the guard before
// deleting an unacknowledged tenant husk).
func onlyStoreFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		return false
	}
	for _, e := range entries {
		switch e.Name() {
		case walName, snapName, snapName + ".tmp", auditName:
		default:
			if _, ok := parseSegName(e.Name()); ok {
				continue
			}
			return false
		}
	}
	return true
}

// findTable resolves a table name case-insensitively, as dpsql does.
func findTable(tabs []dpsql.TableState, name string) int {
	for i := range tabs {
		if strings.EqualFold(tabs[i].Name, name) {
			return i
		}
	}
	return -1
}
