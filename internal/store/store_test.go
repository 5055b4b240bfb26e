package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/dp"
	"repro/internal/dpsql"
)

func testConfig() TenantConfig {
	return TenantConfig{Epsilon: 4, Accounting: "pure"}
}

func eventsSchema() dpsql.TableState {
	return dpsql.TableState{
		Name:    "events",
		Columns: []dpsql.Column{{Name: "uid", Kind: dpsql.KindString}, {Name: "v", Kind: dpsql.KindFloat}},
		UserCol: "uid",
	}
}

func row(uid string, v float64) []dpsql.Value {
	return []dpsql.Value{dpsql.Str(uid), dpsql.Float(v)}
}

// AppendDeduct writes one standalone deduct record, flushed and fsynced
// — the record directories written before group commit hold, which
// recovery must still replay. Live deductions go through CommitDeduct.
func (tl *TenantLog) AppendDeduct(c dp.Cost) error {
	return tl.append(record{Type: recDeduct, Cost: &c}, true)
}

// recoveredSpend is a recovered tenant's total spend: its snapshot
// ledger (if any) plus every replayed deduction.
func recoveredSpend(t *testing.T, rec *RecoveredTenant) float64 {
	t.Helper()
	spent := 0.0
	if rec.Ledger != nil {
		led, err := dp.RestoreLedger(*rec.Ledger)
		if err != nil {
			t.Fatal(err)
		}
		spent = led.Spent()
	}
	for _, c := range rec.Deducts {
		spent += c.Eps
	}
	return spent
}

// seedStore writes a tenant with a table, rows, and deducts, returning
// the data dir.
func seedStore(t *testing.T) string {
	t.Helper()
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
	if err := tl.AppendRows("events", 0, [][]dpsql.Value{row("u3", 3)}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendDeduct(dp.EpsCost(0.25)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func recoverOne(t *testing.T, dir string) (*Store, *RecoveredTenant) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d tenants, want 1", len(recs))
	}
	return s, recs[0]
}

func TestWALRoundTrip(t *testing.T) {
	dir := seedStore(t)
	s, rec := recoverOne(t, dir)
	defer s.Close()
	if rec.ID != "acme" || rec.Config.Epsilon != 4 {
		t.Fatalf("recovered %q config %+v", rec.ID, rec.Config)
	}
	if rec.Ledger != nil {
		t.Fatalf("no snapshot was written, ledger state should be nil")
	}
	if len(rec.Tables) != 1 || rec.Tables[0].Name != "events" || len(rec.Tables[0].Rows) != 3 {
		t.Fatalf("tables: %+v", rec.Tables)
	}
	if len(rec.Deducts) != 2 || rec.Deducts[0].Eps != 0.5 || rec.Deducts[1].Eps != 0.25 {
		t.Fatalf("deducts: %+v", rec.Deducts)
	}
	// The reopened log keeps appending with continuing sequence numbers.
	if err := rec.Log.AppendDeduct(dp.EpsCost(0.1)); err != nil {
		t.Fatal(err)
	}
}

func TestReplayIdempotence(t *testing.T) {
	dir := seedStore(t)
	s1, rec1 := recoverOne(t, dir)
	s1.Close()
	s2, rec2 := recoverOne(t, dir)
	s2.Close()
	if len(rec1.Deducts) != len(rec2.Deducts) {
		t.Fatalf("double replay changed deducts: %d vs %d", len(rec1.Deducts), len(rec2.Deducts))
	}
	if len(rec1.Tables[0].Rows) != len(rec2.Tables[0].Rows) {
		t.Fatalf("double replay changed rows: %d vs %d",
			len(rec1.Tables[0].Rows), len(rec2.Tables[0].Rows))
	}
}

func TestTornTailDropsRowsNeverDeductions(t *testing.T) {
	dir := seedStore(t)
	wal := filepath.Join(dir, "acme", walName)
	// Tear the tail: append garbage without a newline (a crashed append),
	// preceded by an intact-looking but checksum-corrupt line.
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"seq\":99,\"type\":\"rows\"}\n00000000 {\"seq\":100,\"type\":\"ded"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.ReadFile(wal)

	s, rec := recoverOne(t, dir)
	defer s.Close()
	// Everything before the tear survives — crucially both deductions.
	if len(rec.Deducts) != 2 {
		t.Fatalf("torn tail dropped deductions: %+v", rec.Deducts)
	}
	if len(rec.Tables[0].Rows) != 3 {
		t.Fatalf("intact rows dropped: %d", len(rec.Tables[0].Rows))
	}
	// The tail was truncated away so new appends follow intact records.
	after, _ := os.ReadFile(wal)
	if len(after) >= len(before) {
		t.Fatalf("torn tail not truncated: %d >= %d bytes", len(after), len(before))
	}
	if err := rec.Log.AppendDeduct(dp.EpsCost(0.1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, rec2 := recoverOne(t, dir)
	defer s2.Close()
	if len(rec2.Deducts) != 3 {
		t.Fatalf("append after truncation lost: %+v", rec2.Deducts)
	}
}

func TestSnapshotPlusTailEquivalence(t *testing.T) {
	// An operation stream with a compaction in the middle must recover
	// to the same state as an in-memory twin.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := dp.NewBasicLedger(4) // in-memory twin ledger
	if err := tl.AppendTable(eventsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendRows("events", 0, [][]dpsql.Value{row("u1", 1), row("u2", 2)}); err != nil {
		t.Fatal(err)
	}
	_ = twin.Spend(dp.EpsCost(0.5))
	if _, err := tl.CommitDeduct(dp.EpsCost(0.5)); err != nil {
		t.Fatal(err)
	}

	// Compact: the snapshot folds config+ledger+tables through here.
	if err := tl.Compact(testConfig(), testReplayer()); err != nil {
		t.Fatal(err)
	}
	if got := tl.RecordsSinceSnapshot(); got != 0 {
		t.Fatalf("records since snapshot = %d", got)
	}

	// Tail past the snapshot.
	if err := tl.AppendRows("events", 0, [][]dpsql.Value{row("u3", 3)}); err != nil {
		t.Fatal(err)
	}
	_ = twin.Spend(dp.EpsCost(0.25))
	if _, err := tl.CommitDeduct(dp.EpsCost(0.25)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if rec.Ledger == nil {
		t.Fatal("snapshot ledger state missing")
	}
	led, err := dp.RestoreLedger(*rec.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Deducts {
		if err := led.ForceSpend(c); err != nil {
			t.Fatal(err)
		}
	}
	if led.Spent() != twin.Spent() {
		t.Fatalf("recovered spend %v != twin %v", led.Spent(), twin.Spent())
	}
	if len(rec.Tables) != 1 || len(rec.Tables[0].Rows) != 3 {
		t.Fatalf("recovered tables: %+v", rec.Tables)
	}
	// Only the post-snapshot deduct should be in the replay list.
	if len(rec.Deducts) != 1 || rec.Deducts[0].Eps != 0.25 {
		t.Fatalf("deduct tail: %+v", rec.Deducts)
	}
}

func TestCrashBetweenSnapshotAndTruncationIsIdempotent(t *testing.T) {
	// Simulate the worst interleaving: the snapshot is durable but the
	// WAL tail still holds every record it covers (the shape a crash
	// between snapshot and truncation left in earlier versions). The seq
	// guard must skip them instead of double-applying.
	dir := seedStore(t)
	s, rec := recoverOne(t, dir)
	walPath := filepath.Join(dir, "acme", walName)
	preCompact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Log.Compact(rec.Config, testReplayer()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Put the pre-compaction WAL back: every record is now "covered".
	if err := os.WriteFile(walPath, preCompact, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := recoverOne(t, dir)
	defer s2.Close()
	if len(rec2.Deducts) != 0 {
		t.Fatalf("covered deducts replayed again: %+v", rec2.Deducts)
	}
	if len(rec2.Tables) != 1 || len(rec2.Tables[0].Rows) != 3 {
		t.Fatalf("covered rows double-applied: %+v", rec2.Tables)
	}
	if rec2.Ledger == nil || rec2.Ledger.Spent != 0.75 {
		t.Fatalf("snapshot ledger: %+v", rec2.Ledger)
	}
}

func TestSnapshotOnRecoveredLogKeepsLaterDeducts(t *testing.T) {
	// Regression: a recovered WAL must be reopened in append mode, or a
	// write after the log was cut could land past EOF, leaving a
	// zero-filled hole the NEXT recovery reads as a torn prefix —
	// dropping fsynced deductions recorded after the snapshot (a partial
	// budget refill).
	dir := seedStore(t)
	s, rec := recoverOne(t, dir)
	if err := rec.Log.Compact(rec.Config, testReplayer()); err != nil {
		t.Fatal(err)
	}
	// An answered release after the compaction.
	if _, err := rec.Log.CommitDeduct(dp.EpsCost(0.5)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, rec2 := recoverOne(t, dir)
	defer s2.Close()
	if len(rec2.Deducts) != 1 || rec2.Deducts[0].Eps != 0.5 {
		t.Fatalf("fsynced post-snapshot deduction lost: %+v", rec2.Deducts)
	}
	if got := recoveredSpend(t, rec2); got != 1.25 {
		t.Fatalf("recovered spend %v, want 1.25", got)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "acme", walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) > 0 && wal[0] == 0 {
		t.Fatal("WAL begins with a zero-filled hole")
	}
}

func TestUnackedTenantSkipped(t *testing.T) {
	dir := t.TempDir()
	// A directory with an empty WAL: creation was never acknowledged.
	if err := os.MkdirAll(filepath.Join(dir, "ghost"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ghost", walName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A foreign directory (no wal, no snapshot) must be left entirely
	// untouched — no wal.log O_CREATEd into it, no deletion.
	if err := os.MkdirAll(filepath.Join(dir, "backups"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "backups", "keep.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered ghost tenant: %+v", recs)
	}
	// The husk is cleaned up so the id can be created again (a crash
	// before the creation ack must not squat the name forever).
	if _, err := os.Stat(filepath.Join(dir, "ghost")); !os.IsNotExist(err) {
		t.Fatalf("ghost directory not removed: %v", err)
	}
	if _, err := s.CreateTenant("ghost", testConfig()); err != nil {
		t.Fatalf("recreating unacked tenant id: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "backups", walName)); !os.IsNotExist(err) {
		t.Fatalf("store created a wal inside a foreign directory: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "backups", "keep.txt")); err != nil {
		t.Fatalf("foreign directory touched: %v", err)
	}
	// An empty directory (Mkdir-then-crash husk, or the operator's) is
	// left alone by recovery but adopted by a creation of the same id.
	if err := os.MkdirAll(filepath.Join(dir, "husk"), 0o755); err != nil {
		t.Fatal(err)
	}
	if recs, err := s.Recover(); err != nil || len(recs) != 1 {
		t.Fatalf("re-recover: %v %d", err, len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, "husk")); err != nil {
		t.Fatalf("recovery removed an empty directory: %v", err)
	}
	if _, err := s.CreateTenant("husk", testConfig()); err != nil {
		t.Fatalf("adopting an empty directory: %v", err)
	}
}

func TestMidFileCorruptionFailsLoudly(t *testing.T) {
	// Damage BEFORE intact records is not a torn tail — truncating there
	// would drop the acknowledged deductions that follow, so recovery
	// must refuse instead.
	dir := seedStore(t)
	wal := filepath.Join(dir, "acme", walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first line's JSON body.
	corrupted := append([]byte(nil), data...)
	corrupted[12] ^= 0xff
	if err := os.WriteFile(wal, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Recover(); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("mid-file corruption must fail recovery, got %v", err)
	}
	// And nothing was truncated by the refused recovery.
	after, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(corrupted) {
		t.Fatalf("refused recovery modified the WAL: %d -> %d bytes", len(corrupted), len(after))
	}
}

func TestCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := seedStore(t)
	if err := os.WriteFile(filepath.Join(dir, "acme", snapName), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Recover(); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("corrupt snapshot must fail recovery, got %v", err)
	}
}

func TestCheckTenantID(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, "../escape", "LOCK", "lock"} {
		if err := CheckTenantID(bad); err == nil {
			t.Errorf("CheckTenantID(%q) accepted", bad)
		}
	}
	for _, good := range []string{"acme", "tenant-1", "A.B_c"} {
		if err := CheckTenantID(good); err != nil {
			t.Errorf("CheckTenantID(%q): %v", good, err)
		}
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.CreateTenant("../escape", testConfig()); !errors.Is(err, ErrBadTenantID) {
		t.Fatalf("traversal id: %v", err)
	}
	if _, err := s.CreateTenant("dup", testConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTenant("dup", testConfig()); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("dup create: %v", err)
	}
}

func TestConcurrentAppendsVsSnapshot(t *testing.T) {
	// Appends racing Compact must neither tear the log nor lose a
	// deduct (run under -race in CI): recovered spend covers every
	// acknowledged deduction.
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
	const n = 50
	acked := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := tl.CommitDeduct(dp.EpsCost(0.001)); err != nil {
				t.Error(err)
				return
			}
			acked++
			_ = tl.AppendRows("events", 0, [][]dpsql.Value{row("u1", float64(i))})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := tl.Compact(testConfig(), testReplayer()); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if got, want := recoveredSpend(t, rec), float64(acked)*0.001; got < want-1e-9 {
		t.Fatalf("recovered spend %v < acknowledged %v", got, want)
	}
	if got := len(rec.Tables[0].Rows); got != acked {
		t.Fatalf("recovered %d rows, want %d", got, acked)
	}
}

func TestDataDirLock(t *testing.T) {
	dir := t.TempDir()
	// Simulate a foreign holder: an flock taken outside the store's
	// own-process registry behaves exactly like another process's hold
	// (flock ownership is per open file description).
	foreign, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Flock(int(foreign.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("open of a dir flocked elsewhere: %v", err)
	}
	// The holder dies (descriptor closes): the directory is claimable.
	foreign.Close()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open after holder released: %v", err)
	}
	// Same-process re-open (the crash drills): adopted, not refused.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("same-process re-open refused: %v", err)
	}
	s2.Close()
	s.Close()
	// After release a fresh claim succeeds.
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s3.Close()
}

func TestLogFailStop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.CreateTenant("acme", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Force a write error by closing the file underneath the log.
	tl.mu.Lock()
	tl.f.Close()
	tl.mu.Unlock()
	if err := tl.AppendDeduct(dp.EpsCost(0.1)); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if err := tl.AppendDeduct(dp.EpsCost(0.1)); !errors.Is(err, ErrLogBroken) {
		t.Fatalf("log not fail-stop: %v", err)
	}
	if !strings.Contains(tl.dir, dir) {
		t.Fatal("sanity")
	}
}
