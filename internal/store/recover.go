package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dp"
	"repro/internal/dpsql"
)

// RecoveredTenant is one tenant's state reconstructed from snapshot +
// WAL tail, plus its reopened log. The caller (the serve layer) rebuilds
// the live ledger from Ledger (or fresh from Config when Ledger is nil —
// no snapshot was ever written) and then force-replays Deducts on top, so
// recovered spend is the snapshot's spend plus every deduction recorded
// after it.
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

// recoverTenant rebuilds one tenant. Returns (nil, nil) for a directory
// holding no acknowledged tenant.
func (s *Store) recoverTenant(id string) (*RecoveredTenant, error) {
	dir := filepath.Join(s.dir, id)
	rec := &RecoveredTenant{ID: id}
	startSeq := uint64(0)
	haveConfig := false
	var pendAudits []AuditRecord

	// Snapshot first: it is the replay floor.
	snapBody, err := os.ReadFile(filepath.Join(dir, snapName))
	switch {
	case err == nil:
		var snap TenantSnapshot
		if err := json.Unmarshal(snapBody, &snap); err != nil {
			return nil, fmt.Errorf("%w: tenant %q: %v", ErrCorruptSnapshot, id, err)
		}
		rec.Config = snap.Config
		ledger := snap.Ledger
		rec.Ledger = &ledger
		rec.Tables = snap.Tables
		startSeq = snap.Seq
		haveConfig = true
	case os.IsNotExist(err):
		// First boot after creation, or the tenant never compacted.
	default:
		return nil, fmt.Errorf("store: reading snapshot for %q: %w", id, err)
	}

	// Sealed segments next, oldest first: every byte of a segment was
	// fsynced before the seal's rename, so there is no torn-tail class —
	// ANY damage is media corruption that may sit before acknowledged
	// deductions, and recovery refuses loudly. Records at or below the
	// snapshot floor are skipped (covered segments linger when a crash
	// landed between snapshot publication and segment deletion; the next
	// compaction removes them), but their batch audit copies are still
	// stashed for reconciliation, exactly like covered tail records.
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing segments for %q: %w", id, err)
	}
	segLast := uint64(0)
	for _, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return nil, fmt.Errorf("store: reading segment for %q: %w", id, err)
		}
		off := 0
		for off < len(data) {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 {
				return nil, fmt.Errorf("%w: tenant %q segment %s truncated", ErrCorruptWAL, id, filepath.Base(sg.path))
			}
			r, ok := parseLine(data[off : off+nl+1])
			if !ok {
				return nil, fmt.Errorf("%w: tenant %q segment %s at byte %d", ErrCorruptWAL, id, filepath.Base(sg.path), off)
			}
			off += nl + 1
			if r.Seq <= segLast {
				return nil, fmt.Errorf("%w: tenant %q segment %s seq %d after %d", ErrCorruptWAL, id, filepath.Base(sg.path), r.Seq, segLast)
			}
			segLast = r.Seq
			if r.Seq <= startSeq {
				if r.Type == recBatch {
					pendAudits = append(pendAudits, r.Audits...)
				}
				continue
			}
			applyRecord(rec, r, &haveConfig, &pendAudits)
		}
	}

	// Replay the WAL tail: records with seq > startSeq, stopping at the
	// first torn or corrupt line. A bad region is only truncated away
	// when NOTHING intact follows it — the crash model (buffered appends
	// torn mid-write) can damage only the un-fsynced tail, so an intact
	// record after damage means media corruption that may sit before an
	// acknowledged deduction, and recovery refuses loudly instead of
	// silently under-counting spend. O_APPEND on the reopened handle is
	// load-bearing beyond convenience: the handle opens at offset 0 and
	// the Truncate below may cut a torn tail, and only append mode
	// guarantees every write lands at the (possibly truncated) EOF —
	// never over intact records, never past EOF leaving a zero-filled
	// hole that the next recovery reads as damage.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	switch {
	case os.IsNotExist(err):
		if !haveConfig {
			// Neither a snapshot nor a WAL. A directory holding only
			// store-written leftovers (a stray snapshot temp file) is a
			// creation husk — remove it so the id is creatable again. An
			// EMPTY directory is ambiguous (it could be the operator's,
			// freshly made) and is left alone; CreateTenant adopts empty
			// directories instead, so the id does not wedge either way.
			if entries, rerr := os.ReadDir(dir); rerr == nil && len(entries) > 0 && onlyStoreFiles(dir) {
				_ = os.RemoveAll(dir)
			}
			return nil, nil
		}
	case err != nil:
		return nil, fmt.Errorf("store: reading wal for %q: %w", id, err)
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal for %q: %w", id, err)
	}
	lastSeq := startSeq
	if segLast > lastSeq {
		// The tail starts after the newest sealed segment; a tail record
		// at or below segLast is a sequence regression, not a crash shape.
		lastSeq = segLast
	}
	tailStart := lastSeq
	sawTail := false
	goodEnd := int64(0)
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // final line without its newline: a torn append
		}
		line := data[off : off+nl+1]
		r, ok := parseLine(line)
		if !ok {
			if anyIntactSyncedRecord(data[off+nl+1:]) {
				_ = f.Close()
				return nil, fmt.Errorf("%w: tenant %q at byte %d", ErrCorruptWAL, id, off)
			}
			break // torn tail: truncating drops only unacknowledged records
		}
		if !sawTail {
			// The seal point the reopened log resumes from: the seq just
			// before the tail's first physical record (whether or not the
			// snapshot already covers it).
			tailStart = r.Seq - 1
			sawTail = true
		}
		if r.Seq <= startSeq {
			// Intact leftovers of a crash between snapshot publication and
			// WAL truncation — a shape the synchronous snapshot writer of
			// earlier versions left; Compact seals the tail first, so its
			// covered records are segments. The snapshot already includes
			// their effects (the idempotence guard). Keep the bytes, skip
			// the replay — except a batch record's audit copies, which must
			// still reach the audit file if the crash landed before the
			// audit hardening that preceded truncation (reconciliation
			// skips ones the file already has).
			if r.Type == recBatch {
				pendAudits = append(pendAudits, r.Audits...)
			}
			off += nl + 1
			goodEnd = int64(off)
			continue
		}
		if r.Seq <= lastSeq {
			// Sequence regression among intact lines: not a crash shape.
			_ = f.Close()
			return nil, fmt.Errorf("%w: tenant %q seq %d after %d", ErrCorruptWAL, id, r.Seq, lastSeq)
		}
		off += nl + 1
		goodEnd = int64(off)
		lastSeq = r.Seq
		applyRecord(rec, r, &haveConfig, &pendAudits)
	}
	if !haveConfig {
		// No snapshot and no durable creation record: the tenant was never
		// acknowledged (a crash between Mkdir and the synced create
		// append). Skip it — and remove the husk if it holds nothing but
		// store-written files, or re-creating the same tenant id would
		// hit the existing directory and 409 forever. Anything else in
		// the directory is not ours to delete.
		_ = f.Close()
		if onlyStoreFiles(dir) {
			_ = os.RemoveAll(dir)
		}
		return nil, nil
	}
	// Truncate any torn tail; O_APPEND positions every future write at
	// the (possibly truncated) EOF.
	if err := f.Truncate(goodEnd); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: truncating torn wal for %q: %w", id, err)
	}
	s.mu.Lock()
	met := s.metrics
	if len(pendAudits) > 0 {
		// Audit copies recovered from batch records wait here until
		// OpenAudit reconciles them against the audit file's intact
		// prefix.
		if s.pendingAudits == nil {
			s.pendingAudits = map[string][]AuditRecord{}
		}
		s.pendingAudits[id] = pendAudits
	}
	s.mu.Unlock()
	rec.Log = &TenantLog{
		id:        id,
		dir:       dir,
		f:         f,
		w:         bufio.NewWriterSize(f, walBufSize),
		seq:       lastSeq,
		snapSeq:   startSeq,
		tailStart: tailStart,
		pending:   int(lastSeq - startSeq),
		segs:      segs,
		met:       met,
	}
	rec.Log.startCommitter()
	return rec, nil
}

// applyRecord folds one intact WAL record into the recovering state —
// shared by tail replay, sealed-segment replay, and off-path compaction
// (which accumulates into the same struct). Unknown record types from a
// future version are kept but not replayed.
func applyRecord(rec *RecoveredTenant, r record, haveConfig *bool, pendAudits *[]AuditRecord) {
	switch r.Type {
	case recCreate:
		if r.Config != nil && !*haveConfig {
			rec.Config = *r.Config
			*haveConfig = true
		}
	case recTable:
		if r.Table != nil {
			rec.Tables = append(rec.Tables, *r.Table)
		}
	case recRows:
		// Rows into a table replay does not know are dropped, not
		// fatal: rows are the tolerated-loss class, and refusing to
		// boot over a data batch would hold the ledger — the part that
		// must recover — hostage to it. Rows carry no placement (the
		// importer routes each by user-id hash); an old record's shard tag
		// is ignored.
		if ti := findTable(rec.Tables, r.RowsTable); ti >= 0 {
			tb := &rec.Tables[ti]
			tb.Rows = append(tb.Rows, r.Rows...)
		}
	case recDeduct:
		if r.Cost != nil {
			rec.Deducts = append(rec.Deducts, *r.Cost)
		}
	case recBatch:
		// A group-commit batch: every deduction it carries was acked by
		// one shared fsync, so all replay into spend; its audit copies
		// are stashed for OpenAudit to reconcile into the (buffered,
		// possibly behind) audit file. The whole batch is one CRC'd
		// line, so a tear drops it atomically — never a prefix.
		rec.Deducts = append(rec.Deducts, r.Costs...)
		*pendAudits = append(*pendAudits, r.Audits...)
	default:
		// Unknown record type from a future version: replay what we
		// understand, keep the record (it is intact).
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
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return false
		}
		if r, ok := parseLine(rest[:nl+1]); ok && r.Type != recRows {
			return true
		}
		rest = rest[nl+1:]
	}
	return false
}

// parseLine decodes one WAL line "crc32hex <json>\n", reporting ok=false
// on any damage (short line, bad hex, checksum mismatch, bad JSON).
func parseLine(line []byte) (record, bool) {
	var r record
	body, ok := checkLine(line)
	if !ok {
		return r, false
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, false
	}
	return r, true
}

// checkLine validates one CRC'd log line "crc32hex <body>\n" (the WAL's
// and the audit log's shared framing), returning the body with the
// checksum verified, or ok=false on any damage (short line, bad hex,
// checksum mismatch).
func checkLine(line []byte) ([]byte, bool) {
	// "xxxxxxxx " + "{}" + "\n" is the minimum.
	if len(line) < 12 || line[8] != ' ' || line[len(line)-1] != '\n' {
		return nil, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, false
	}
	body := bytes.TrimSuffix(line[9:], []byte("\n"))
	if crc32.ChecksumIEEE(body) != uint32(want) {
		return nil, false
	}
	return body, true
}

// onlyStoreFiles reports whether a tenant directory contains nothing the
// store did not write itself (the guard before deleting an unacknowledged
// tenant husk).
func onlyStoreFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
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
