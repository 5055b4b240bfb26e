package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dp"
)

// The group-commit crash drills. The crash model throughout: "crash"
// means abandoning a Store without Close or Flush — buffered state (the
// audit file's bufio, the WAL's rows class) dies with the process, and
// only what an fsync barrier covered survives. Same-process re-Open
// adopts the directory lock (see TestDataDirLock), so the drills run
// in-process.

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGroupCommitAckedDeductsSurviveCrash(t *testing.T) {
	// Every CommitDeduct that returned nil was acked by its batch's
	// fsync; a crash immediately after must lose none of them. (The
	// converse — no release answered from a lost batch — is the same
	// barrier seen from the other side: submit does not return until the
	// batch record is fsynced, so a batch a crash can lose is a batch no
	// caller was ever released from.)
	dir := t.TempDir()
	s := openStore(t, dir)
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var acked atomic.Int64
	var sawBatchWait atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct, err := tl.CommitDeduct(dp.EpsCost(0.001))
			if err != nil {
				t.Error(err)
				return
			}
			if ct.Waited > 0 {
				sawBatchWait.Store(true)
			}
			acked.Add(1)
		}()
	}
	wg.Wait()
	if !sawBatchWait.Load() {
		t.Log("no submission parked (fsync outran 64 goroutines) — durability assertion still holds")
	}

	// Crash: abandon s. The committer goroutine idles; no Close, no Flush.
	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if int64(len(rec.Deducts)) < acked.Load() {
		t.Fatalf("crash lost acked deductions: recovered %d, acked %d", len(rec.Deducts), acked.Load())
	}
	var spent float64
	for _, c := range rec.Deducts {
		spent += c.Eps
	}
	if want := float64(acked.Load()) * 0.001; spent < want-1e-9 {
		t.Fatalf("recovered spend %g < acknowledged spend %g", spent, want)
	}
}

// appendRaw writes pre-framed bytes straight to a tenant's WAL, the
// hand-tooled crash shapes the committer itself would never produce.
func appendRaw(t *testing.T, dir, id string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, id, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func frameRecord(t *testing.T, r record) []byte {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(body), body))
}

func TestTornBatchDropsWholeBatchNeverPrefix(t *testing.T) {
	// A batch is ONE CRC-framed WAL line: a crash mid-write must drop
	// every cost it carries or none — a replayed prefix would charge the
	// ledger for releases that were never acknowledged.
	dir := t.TempDir()
	s := openStore(t, dir)
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.CommitDeduct(dp.EpsCost(0.5)); err != nil { // seq 2 (create is 1)
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-append an intact batch (seq 3), then a torn one (seq 4) cut
	// mid-frame AFTER its first cost object is fully serialized — the
	// tear shape most tempting to a prefix-replaying recovery.
	intact := frameRecord(t, record{Seq: 3, Type: recBatch, Costs: []dp.Cost{{Eps: 0.25}, {Eps: 0.125}}})
	torn := frameRecord(t, record{Seq: 4, Type: recBatch, Costs: []dp.Cost{{Eps: 64}, {Eps: 32}, {Eps: 16}}})
	cut := bytes.Index(torn, []byte("},{")) + 1 // just past the first cost's closing brace
	if cut <= 0 {
		t.Fatal("tear offset not found")
	}
	appendRaw(t, dir, "acme", append(intact, torn[:cut]...))

	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	var spent float64
	for _, c := range rec.Deducts {
		spent += c.Eps
		if c.Eps >= 16 {
			t.Fatalf("torn batch replayed a prefix: cost %+v recovered", c)
		}
	}
	if want := 0.5 + 0.25 + 0.125; spent != want {
		t.Fatalf("recovered spend %g, want %g (intact batches whole, torn batch gone)", spent, want)
	}
	// The tear was truncated away; the log keeps appending.
	if err := rec.Log.AppendDeduct(dp.EpsCost(0.1)); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitAuditReconciledAfterCrash(t *testing.T) {
	// Audit appends are BUFFERED in the audit file — the durable copy
	// rides the batch WAL record. A crash throws the buffer away;
	// recovery must rebuild the file from the WAL copies so that every
	// acknowledged (acked-by-barrier) release is audited, with seqs
	// contiguous.
	dir := t.TempDir()
	s := openStore(t, dir)
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.OpenAudit("acme")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := a.Append(&AuditRecord{
			ReleaseID: fmt.Sprintf("r%02d", i),
			Path:      "estimate",
			Mechanism: "count",
			Cost:      dp.EpsCost(0.01),
			Unit:      "eps",
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := tl.CommitDeduct(dp.EpsCost(0.01)); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Len(); got != n {
		t.Fatalf("audit len %d, want %d", got, n)
	}

	// Crash: abandon s AND a — the bufio holding the audit lines is lost.
	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if len(rec.Deducts) != n {
		t.Fatalf("recovered %d deducts, want %d", len(rec.Deducts), n)
	}
	a2, err := s2.OpenAudit("acme")
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if got := a2.Len(); got != n {
		t.Fatalf("acknowledged implies audited: recovered audit len %d, want %d", got, n)
	}
	page, err := a2.Page(0, n+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != n {
		t.Fatalf("paged %d records, want %d", len(page), n)
	}
	for i, r := range page {
		if r.Seq != uint64(i+1) {
			t.Fatalf("audit seq gap after reconcile: page[%d].Seq = %d", i, r.Seq)
		}
		if r.ReleaseID != fmt.Sprintf("r%02d", i) {
			t.Fatalf("reconciled record reordered: %+v at %d", r, i)
		}
	}
}

func TestCommitChargeAtomic(t *testing.T) {
	// A charge's cost and its audit record are one barrier entry: after a
	// crash the WAL's deductions and the audit log pair up one to one, in
	// order. And when the audit line cannot be written the entry fails
	// with its cost kept out of the WAL — a charge is never durable
	// without its audit line.
	dir := t.TempDir()
	s := openStore(t, dir)
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenAudit("acme"); err != nil {
		t.Fatal(err)
	}
	const n = 12
	cost := func(i int) dp.Cost { return dp.EpsCost(0.001 * float64(i+1)) }
	for i := 0; i < n; i++ {
		rec := &AuditRecord{ReleaseID: fmt.Sprintf("r%02d", i), Path: "estimate", Mechanism: "median", Cost: cost(i), Unit: "eps"}
		if _, err := tl.CommitCharge(cost(i), rec); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != uint64(i+1) {
			t.Fatalf("charge %d: audit seq %d", i, rec.Seq)
		}
	}

	// Crash: abandon the store and its audit file's buffer.
	s2, rec := recoverOne(t, dir)
	a2, err := s2.OpenAudit("acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Deducts) != n || a2.Len() != n {
		t.Fatalf("recovered %d deductions and %d audit records, want %d of each", len(rec.Deducts), a2.Len(), n)
	}
	page, err := a2.Page(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range page {
		if !reflect.DeepEqual(r.Cost, rec.Deducts[i]) || r.ReleaseID != fmt.Sprintf("r%02d", i) {
			t.Fatalf("audit record %d (%+v) does not match deduction %+v", i, r, rec.Deducts[i])
		}
	}

	// A broken audit file fails the charge, and its cost stays out of
	// the WAL; a plain deduction after it still commits.
	a2.mu.Lock()
	a2.broken = true
	a2.mu.Unlock()
	if _, err := rec.Log.CommitCharge(dp.EpsCost(1), &AuditRecord{ReleaseID: "lost", Cost: dp.EpsCost(1), Unit: "eps"}); err == nil {
		t.Fatal("CommitCharge succeeded with a broken audit file")
	}
	if _, err := rec.Log.CommitDeduct(dp.EpsCost(0.5)); err != nil {
		t.Fatal(err)
	}
	s3, rec3 := recoverOne(t, dir)
	defer s3.Close()
	if len(rec3.Deducts) != n+1 || rec3.Deducts[n].Eps != 0.5 {
		t.Fatalf("recovered deductions %v: want the %d charges and the plain deduction, not the failed charge", rec3.Deducts, n)
	}
}

func TestGroupCommitSnapshotHardensAuditBeforeTruncation(t *testing.T) {
	// Compact deletes the sealed segments — destroying the batch records
	// that are the buffered audit lines' only durable copy — so it must
	// harden the audit file FIRST. Drill: append, compact, crash; the
	// audit file alone must hold every record.
	dir := t.TempDir()
	s := openStore(t, dir)
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.OpenAudit("acme")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Append(&AuditRecord{ReleaseID: fmt.Sprintf("r%d", i), Cost: dp.EpsCost(0.01), Unit: "eps"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tl.Compact(testConfig(), testReplayer()); err != nil {
		t.Fatal(err)
	}
	if got := tl.SegmentCount(); got != 0 {
		t.Fatalf("compaction kept %d segments", got)
	}

	// Crash. The segments are gone (batch copies with them); the
	// hardened audit file is now the only record.
	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	a2, err := s2.OpenAudit(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if got := a2.Len(); got != n {
		t.Fatalf("compaction destroyed audit records: len %d, want %d", got, n)
	}
}

func TestGroupCommitStress(t *testing.T) {
	// Parked releases vs audit appends vs Compact vs Close, for -race:
	// submitters hammer until Close breaks the log, treating ErrLogBroken
	// as the stop signal; nothing may hang, tear, or lose an acked
	// record. The batch cap is lowered so batch boundaries churn.
	dir := t.TempDir()
	s := openStore(t, dir)
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tl.gc.mu.Lock()
	tl.gc.maxBatch = 4
	tl.gc.mu.Unlock()
	a, err := s.OpenAudit("acme")
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := tl.CommitDeduct(dp.EpsCost(1e-6)); err != nil {
					if !errors.Is(err, ErrLogBroken) {
						t.Errorf("CommitDeduct: %v", err)
					}
					return
				}
				acked.Add(1)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				rec := AuditRecord{ReleaseID: fmt.Sprintf("s%d-%d", g, i), Cost: dp.EpsCost(1e-6), Unit: "eps"}
				if err := a.Append(&rec); err != nil {
					if !errors.Is(err, ErrLogBroken) {
						t.Errorf("audit Append: %v", err)
					}
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			// A compaction racing Close may find the log closed
			// (ErrLogBroken); it must never lose or tear anything.
			if err := tl.Compact(testConfig(), testReplayer()); err != nil && !errors.Is(err, ErrLogBroken) {
				t.Errorf("Compact: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Post-close submissions fail fast with ErrLogBroken, never hang.
	if _, err := tl.CommitDeduct(dp.EpsCost(1)); !errors.Is(err, ErrLogBroken) {
		t.Fatalf("post-close CommitDeduct: %v", err)
	}
	if err := a.Append(&AuditRecord{ReleaseID: "late"}); !errors.Is(err, ErrLogBroken) {
		t.Fatalf("post-close audit Append: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// The directory recovers cleanly — neither the racing compactions
	// nor the mid-flight Close tore the WAL or the audit file — with
	// every acknowledged deduction's spend.
	if acked.Load() == 0 {
		t.Error("stress acked nothing — the race never exercised the barrier")
	}
	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if got, want := recoveredSpend(t, rec), float64(acked.Load())*1e-6; got < want*(1-1e-9) {
		t.Fatalf("recovered spend %v < acknowledged %v", got, want)
	}
	a2, err := s2.OpenAudit(rec.ID)
	if err != nil {
		t.Fatalf("audit file torn by stress: %v", err)
	}
	a2.Close()
}
