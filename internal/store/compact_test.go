package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dp"
	"repro/internal/dpsql"
)

// testReplayer is the ledger rebuild a real server supplies to Compact:
// restore the previous snapshot's state (or start fresh from the config)
// and force-replay the sealed deductions on top.
func testReplayer() LedgerReplayer {
	return func(cfg TenantConfig, prev *dp.LedgerState, deducts []dp.Cost) (dp.LedgerState, error) {
		var (
			led dp.StatefulLedger
			err error
		)
		if prev != nil {
			led, err = dp.RestoreLedger(*prev)
		} else {
			led, err = dp.NewBasicLedger(cfg.Epsilon)
		}
		if err != nil {
			return dp.LedgerState{}, err
		}
		for _, c := range deducts {
			if err := led.ForceSpend(c); err != nil {
				return dp.LedgerState{}, err
			}
		}
		return led.Snapshot()
	}
}

// TestSealAndRecover: records on both sides of a seal — some in an
// immutable segment, some in the fresh tail — all come back, in order,
// and the recovered log knows its segments.
func TestSealAndRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendTable(eventsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendRows("events", 0, [][]dpsql.Value{row("u1", 1), row("u2", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendDeduct(dp.EpsCost(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := tl.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := tl.SegmentCount(); got != 1 {
		t.Fatalf("SegmentCount after seal = %d, want 1", got)
	}
	// A seal with an empty tail is a no-op, not an empty segment.
	if err := tl.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := tl.SegmentCount(); got != 1 {
		t.Fatalf("empty-tail seal minted a segment: %d", got)
	}
	if err := tl.AppendRows("events", 0, [][]dpsql.Value{row("u3", 3)}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendDeduct(dp.EpsCost(0.25)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if len(rec.Tables) != 1 || len(rec.Tables[0].Rows) != 3 {
		t.Fatalf("tables: %+v", rec.Tables)
	}
	if len(rec.Deducts) != 2 || rec.Deducts[0].Eps != 0.5 || rec.Deducts[1].Eps != 0.25 {
		t.Fatalf("deducts: %+v", rec.Deducts)
	}
	if got := rec.Log.SegmentCount(); got != 1 {
		t.Fatalf("recovered SegmentCount = %d, want 1", got)
	}
	// The recovered log appends and seals on, with continuing seqs.
	if err := rec.Log.AppendDeduct(dp.EpsCost(0.1)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Log.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Log.SegmentCount(); got != 2 {
		t.Fatalf("post-recovery seal: SegmentCount = %d, want 2", got)
	}
}

// TestCompactFoldsSegmentsAndCarriesSpend: Compact seals the tail,
// replays the sealed records into a snapshot (rows AND spend), deletes
// the covered segments, and recovery from the result is exact.
func TestCompactFoldsSegmentsAndCarriesSpend(t *testing.T) {
	dir := seedStore(t) // 3 rows, deducts 0.5 + 0.25
	s, rec := recoverOne(t, dir)
	tl := rec.Log
	if err := tl.Compact(testConfig(), testReplayer()); err != nil {
		t.Fatal(err)
	}
	if got := tl.SegmentCount(); got != 0 {
		t.Fatalf("covered segments survived compaction: %d", got)
	}
	// Post-compaction deducts live only in the new tail.
	if err := tl.AppendDeduct(dp.EpsCost(0.125)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := recoverOne(t, dir)
	defer s2.Close()
	if rec2.Ledger == nil {
		t.Fatal("compaction published no ledger state")
	}
	led, err := dp.RestoreLedger(*rec2.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	if got := led.Spent(); got != 0.75 {
		t.Fatalf("snapshot ledger spent %v, want 0.75", got)
	}
	if len(rec2.Deducts) != 1 || rec2.Deducts[0].Eps != 0.125 {
		t.Fatalf("tail deducts: %+v", rec2.Deducts)
	}
	if len(rec2.Tables) != 1 || len(rec2.Tables[0].Rows) != 3 {
		t.Fatalf("tables: %+v", rec2.Tables)
	}
}

// TestCompactRepeatedlyConcurrentWithAppends: appends race Compact calls
// — the whole point of off-path compaction — and nothing is lost. Run
// under -race in CI, this is also the lock-discipline check.
func TestCompactRepeatedlyConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendTable(eventsSchema()); err != nil {
		t.Fatal(err)
	}
	const deducts = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < deducts; i++ {
			if err := tl.AppendDeduct(dp.EpsCost(0.001)); err != nil {
				t.Error(err)
				return
			}
			if i%5 == 0 {
				if err := tl.AppendRows("events", 0, [][]dpsql.Value{row(fmt.Sprintf("u%03d", i), float64(i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := tl.Compact(testConfig(), testReplayer()); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := tl.Compact(testConfig(), testReplayer()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	led, err := dp.RestoreLedger(*rec.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	spent := led.Spent()
	for _, c := range rec.Deducts {
		spent += c.Eps
	}
	// Exact count: snapshot spend plus tail deducts must equal every
	// acknowledged deduction — never fewer (lost spend) nor more
	// (double count from a record in both snapshot and segment).
	if want := float64(deducts) * 0.001; spent < want-1e-9 || spent > want+1e-9 {
		t.Fatalf("total recovered spend %v, want %v", spent, want)
	}
	if got := len(rec.Tables[0].Rows); got != deducts/5 {
		t.Fatalf("recovered %d rows, want %d", got, deducts/5)
	}
}

// TestCorruptSegmentFailsLoudly: sealed segments are fully fsynced, so
// ANY damage is real corruption — recovery must refuse, not truncate the
// way the torn-tail heuristic does for the active tail. Compact reads
// segments through the same reader, so it refuses a live log's damaged
// segment too, keeping the segment and the previous snapshot as they
// were.
func TestCorruptSegmentFailsLoudly(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"flipped byte": func(b []byte) []byte { out := append([]byte(nil), b...); out[len(out)/2] ^= 0x40; return out },
		"truncated":    func(b []byte) []byte { return b[:len(b)-3] },
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendTable(eventsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendDeduct(dp.EpsCost(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := tl.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(filepath.Join(dir, "acme"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range corruptions {
		if err := os.WriteFile(segs[0].path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s2.Recover()
		s2.Close()
		if !errors.Is(err, ErrCorruptWAL) {
			t.Fatalf("%s segment: Recover() = %v, want ErrCorruptWAL", name, err)
		}
	}

	for name, mutate := range corruptions {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tl, err := s.CreateTenant("acme", testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.AppendDeduct(dp.EpsCost(0.5)); err != nil {
			t.Fatal(err)
		}
		if err := tl.Compact(testConfig(), testReplayer()); err != nil {
			t.Fatal(err)
		}
		if err := tl.AppendDeduct(dp.EpsCost(0.25)); err != nil {
			t.Fatal(err)
		}
		if err := tl.Seal(); err != nil {
			t.Fatal(err)
		}
		tdir := filepath.Join(dir, "acme")
		snap, err := os.ReadFile(filepath.Join(tdir, snapName))
		if err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(tdir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments: %v err=%v", segs, err)
		}
		data, err := os.ReadFile(segs[0].path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segs[0].path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := tl.Compact(testConfig(), testReplayer()); !errors.Is(err, ErrCorruptWAL) {
			t.Fatalf("%s segment: Compact() = %v, want ErrCorruptWAL", name, err)
		}
		if _, err := os.Stat(segs[0].path); err != nil || tl.SegmentCount() != 1 {
			t.Errorf("%s segment: not kept after a refused compaction (stat err=%v, log holds %d)", name, err, tl.SegmentCount())
		}
		if after, err := os.ReadFile(filepath.Join(tdir, snapName)); err != nil || string(after) != string(snap) {
			t.Errorf("%s segment: snapshot.json changed by a refused compaction (err=%v)", name, err)
		}
	}
}

// TestCoveredSegmentSkippedAndCleaned: a crash after the compaction
// snapshot publishes but before the covered segment is deleted leaves
// both on disk. Recovery must not double-apply the segment, and the next
// compaction sweeps the stale file.
func TestCoveredSegmentSkippedAndCleaned(t *testing.T) {
	dir := seedStore(t)
	s, rec := recoverOne(t, dir)
	tl := rec.Log
	if err := tl.Seal(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(filepath.Join(dir, "acme"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	saved, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Compact(testConfig(), testReplayer()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the covered segment: disk now looks like the crash hit
	// between snapshot publish and segment delete.
	if err := os.WriteFile(segs[0].path, saved, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := recoverOne(t, dir)
	if led, err := dp.RestoreLedger(*rec2.Ledger); err != nil {
		t.Fatal(err)
	} else if got := led.Spent(); got != 0.75 {
		t.Fatalf("spend after resurrected segment = %v, want 0.75 (double-applied?)", got)
	}
	if got := len(rec2.Tables[0].Rows); got != 3 {
		t.Fatalf("rows after resurrected segment = %d, want 3", got)
	}
	// The stale file rides along until the next compaction sweeps it.
	if err := rec2.Log.AppendDeduct(dp.EpsCost(0.1)); err != nil {
		t.Fatal(err)
	}
	if err := rec2.Log.Compact(testConfig(), testReplayer()); err != nil {
		t.Fatal(err)
	}
	if segs, err := listSegments(filepath.Join(dir, "acme")); err != nil || len(segs) != 0 {
		t.Fatalf("stale covered segment not cleaned: %v err=%v", segs, err)
	}
	s2.Close()
}

// TestCompactFailedReplayLeavesWALAuthoritative: a failing ledger replay
// aborts the compaction with the segments intact — recovery still has
// every record, and spend is never recorded less than acknowledged.
func TestCompactFailedReplayLeavesWALAuthoritative(t *testing.T) {
	dir := seedStore(t)
	s, rec := recoverOne(t, dir)
	tl := rec.Log
	boom := errors.New("replay boom")
	err := tl.Compact(testConfig(), func(TenantConfig, *dp.LedgerState, []dp.Cost) (dp.LedgerState, error) {
		return dp.LedgerState{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Compact() = %v, want the replayer's error", err)
	}
	// The seal happened (that part is safe); the segment must survive.
	if got := tl.SegmentCount(); got != 1 {
		t.Fatalf("SegmentCount after failed compaction = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec2 := recoverOne(t, dir)
	defer s2.Close()
	if len(rec2.Deducts) != 2 || len(rec2.Tables[0].Rows) != 3 {
		t.Fatalf("failed compaction lost records: %d deducts, %+v", len(rec2.Deducts), rec2.Tables)
	}
}
