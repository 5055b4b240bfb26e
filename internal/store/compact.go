package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dp"
)

// This file is the segmented half of the WAL and its off-path compaction.
//
// The log is split into an active tail (wal.log, the only file ever
// appended to) plus sealed immutable segments (wal.%09d.seg, named by the
// last sequence number they contain). Sealing is a rename: flush + fsync
// the tail, rename it into place, fsync the directory, reopen a fresh
// tail — a few syscalls under the log mutex, microseconds, not the
// snapshot serialization that used to sit there. Everything in a sealed
// segment was fsynced before the rename, so segments have no torn-tail
// class: ANY damage in one is media corruption and recovery refuses
// loudly (ErrCorruptWAL) rather than truncating a file that may carry
// acknowledged deductions.
//
// Compaction then runs entirely off the hot path: it reads the previous
// snapshot plus the sealed segments above its floor — all immutable
// on-disk inputs — through readSealed, the same reader recovery uses, and
// merges them into a new snapshot without holding the log mutex (which
// releases and group commit need) or any serve-layer lock. The only
// lock the hot path shares with a running compaction is the instant of
// the seal itself. Segments are deleted only after the new snapshot AND
// the audit file are durable, so a crash anywhere leaves a state that
// replays to the same spend (covered segments are skipped by the seq
// guard and cleaned up by the next compaction).

// segPrefix/segSuffix frame a sealed segment's file name.
const (
	segPrefix = "wal."
	segSuffix = ".seg"
)

// walSegment is one sealed immutable WAL segment on disk.
type walSegment struct {
	end  uint64 // last record sequence number the segment contains
	path string
}

// segName renders the file name of the segment ending at seq.
func segName(end uint64) string {
	return fmt.Sprintf("%s%09d%s", segPrefix, end, segSuffix)
}

// parseSegName recognizes a sealed-segment file name and extracts its end
// sequence number.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	if mid == "" {
		return 0, false
	}
	end, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return end, true
}

// listSegments returns dir's sealed segments sorted by end seq.
func listSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if end, ok := parseSegName(e.Name()); ok {
			segs = append(segs, walSegment{end: end, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].end < segs[j].end })
	return segs, nil
}

// Seal closes the active tail into an immutable segment and reopens a
// fresh one. An empty tail is a no-op. Exposed for drills and tests; the
// normal caller is Compact.
func (tl *TenantLog) Seal() error {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.broken || tl.f == nil {
		return ErrLogBroken
	}
	return tl.sealLocked()
}

// sealLocked rotates the tail under tl.mu: flush + fsync, rename to
// wal.<seq>.seg, sync the directory, reopen a fresh tail. Failures are
// fail-stop (the log's invariant: a half-rotated file must never take
// another append). The pause releases and group commit see is these few
// syscalls — no serialization, no snapshot I/O.
func (tl *TenantLog) sealLocked() error {
	if tl.seq == tl.tailStart {
		return nil // empty tail: nothing to seal
	}
	if err := tl.flushLocked(); err != nil {
		return err
	}
	if err := tl.f.Close(); err != nil {
		tl.broken = true
		return fmt.Errorf("store: closing tail for seal: %w", err)
	}
	seg := walSegment{end: tl.seq, path: filepath.Join(tl.dir, segName(tl.seq))}
	if err := os.Rename(filepath.Join(tl.dir, walName), seg.path); err != nil {
		tl.broken = true
		return fmt.Errorf("store: sealing wal segment: %w", err)
	}
	if err := syncDir(tl.dir); err != nil {
		tl.broken = true
		return fmt.Errorf("store: syncing dir after seal: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(tl.dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		tl.broken = true
		return fmt.Errorf("store: reopening tail after seal: %w", err)
	}
	tl.f = f
	tl.w = bufio.NewWriterSize(f, walBufSize)
	tl.segs = append(tl.segs, seg)
	tl.tailStart = tl.seq
	return nil
}

// LedgerReplayer rebuilds a compacted ledger state: prev is the previous
// snapshot's state (nil when no snapshot existed) and deducts are every
// deduction recorded after it, in WAL order. The serve layer supplies
// the implementation because only it knows how to construct the tenant's
// composition backend from cfg; the store stays mechanism-agnostic.
type LedgerReplayer func(cfg TenantConfig, prev *dp.LedgerState, deducts []dp.Cost) (dp.LedgerState, error)

// Compact merges the previous snapshot and the sealed segments above it
// (read through readSealed, recovery's reader) into a new snapshot,
// entirely off the hot path: releases, ingestion, and group commit
// proceed concurrently, pausing only for the seal's few syscalls. The caller needs no state capture and holds no serve-layer
// lock — compaction's inputs are immutable files. cfg is the tenant's
// authoritative configuration (written into the new snapshot); replay
// rebuilds the ledger state and is required.
//
// Compact is the store's only snapshot writer: the snapshot is a
// function of the WAL, never a capture of live memory, so it cannot be
// stale. A graceful shutdown (the serve layer's Flush) compacts too.
//
// Crash safety, step by step: the new snapshot is published with a
// tmp+fsync+rename+dirsync dance (writeSnapshotFile); the audit file
// is hardened BEFORE any segment is deleted (batch records in segments
// may hold the only durable copy of buffered audit lines); and segment
// deletion is last, so a crash at any point leaves either the old
// snapshot with all segments or the new snapshot with some covered
// segments — both replay to the same state, and the next compaction
// removes covered leftovers.
func (tl *TenantLog) Compact(cfg TenantConfig, replay LedgerReplayer) error {
	if replay == nil {
		return fmt.Errorf("store: compaction needs a ledger replayer")
	}
	// compactMu serializes compactions (each rewrites snapshot.json and
	// deletes segments). It is never held while waiting on tl.mu-holders'
	// work — tl.mu is taken only for the seal and the final install, both
	// brief.
	tl.compactMu.Lock()
	defer tl.compactMu.Unlock()
	if m := tl.met; m != nil && m.CompactionSeconds != nil {
		t0 := time.Now()
		defer func() { m.CompactionSeconds.Observe(time.Since(t0).Seconds()) }()
	}

	// Step 1 (brief tl.mu): seal the tail; capture the seal point and the
	// segments above the snapshot's floor.
	tl.mu.Lock()
	if tl.broken || tl.f == nil {
		tl.mu.Unlock()
		return ErrLogBroken
	}
	if err := tl.sealLocked(); err != nil {
		tl.mu.Unlock()
		return err
	}
	idle := len(tl.segs) == 0 && tl.seq == tl.snapSeq
	sealSeq := tl.seq
	var segs []walSegment
	for _, sg := range tl.segs {
		if sg.end > tl.snapSeq {
			segs = append(segs, sg) // the rest are covered leftovers, dropped below
		}
	}
	tl.mu.Unlock()
	if idle {
		return nil // nothing sealed and nothing uncovered: no work
	}

	// Step 2 (no locks): merge snapshot + segments into the new state.
	h, err := readSealed(tl.dir, tl.id, segs)
	if err != nil {
		return err
	}
	ls, err := replay(cfg, h.Ledger, h.Deducts)
	if err != nil {
		return fmt.Errorf("store: replaying ledger for %q: %w", tl.id, err)
	}
	snap := TenantSnapshot{Seq: sealSeq, Config: cfg, Ledger: ls, Tables: h.Tables}
	if err := writeSnapshotFile(tl.dir, snap); err != nil {
		return err
	}
	if err := syncDir(tl.dir); err != nil {
		// The rename is not confirmed durable: a crash could resurface the
		// old snapshot, so the segments must stay authoritative. The next
		// compaction retries.
		return nil
	}
	// Harden the audit file before deleting segments: batch records in
	// them may hold the only durable copy of buffered audit lines.
	if a := tl.attachedAudit(); a != nil {
		if err := a.harden(); err != nil {
			return nil
		}
	}

	// Step 3 (brief tl.mu): install the new floor and drop covered
	// segments, then delete their files outside the lock.
	var drop []string
	tl.mu.Lock()
	if tl.f != nil && !tl.broken {
		tl.snapSeq = sealSeq
		if tl.seq >= sealSeq {
			tl.pending = int(tl.seq - sealSeq)
		}
		keep := tl.segs[:0]
		for _, sg := range tl.segs {
			if sg.end <= sealSeq {
				drop = append(drop, sg.path)
			} else {
				keep = append(keep, sg)
			}
		}
		tl.segs = keep
	}
	tl.mu.Unlock()
	for _, p := range drop {
		_ = os.Remove(p) // leftovers are covered and cleaned next time
	}
	_ = syncDir(tl.dir)
	return nil
}

// SegmentCount reports the tenant's sealed, not-yet-compacted segments.
func (tl *TenantLog) SegmentCount() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.segs)
}

// Segments reports the total sealed segments across every open tenant
// log — the updp_wal_segments gauge's reading: a steadily growing value
// means compaction is falling behind sealing.
func (s *Store) Segments() int {
	s.mu.Lock()
	logs := make([]*TenantLog, 0, len(s.logs))
	for _, tl := range s.logs {
		logs = append(logs, tl)
	}
	s.mu.Unlock()
	n := 0
	for _, tl := range logs {
		n += tl.SegmentCount()
	}
	return n
}

// writeSnapshotFile serializes snap and publishes it as dir's
// snapshot.json via temp file + fsync + atomic rename. The caller owns
// the directory sync that makes the rename durable.
func writeSnapshotFile(dir string, snap TenantSnapshot) error {
	body, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(dir, snapName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tf.Write(append(body, '\n')); err != nil {
		_ = tf.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := tf.Sync(); err != nil {
		_ = tf.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName)); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	return nil
}
