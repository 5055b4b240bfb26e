package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dp"
	"repro/internal/dpsql"
)

// shardedConfig is a tenant created under the sharded build.
func shardedConfig() TenantConfig {
	return TenantConfig{Epsilon: 4, Accounting: "pure", Shards: 4}
}

// frameBody frames a literal WAL record body as one CRC'd log line —
// the way to write records in an older encoding than record's.
func frameBody(body string) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(body)), body)
}

// TestShardTaggedReplay: rows records written by earlier versions carry a
// "shard" tag; replay ignores it and recovers every row in record order,
// interleaved with untagged records and the deduction. New records carry
// no tag, whatever AppendRows' int argument is.
func TestShardTaggedReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.CreateTenant("acme", shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	schema := eventsSchema()
	schema.Shards = 4
	if err := tl.AppendTable(schema); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendRows("events", 3, [][]dpsql.Value{row("u1", 1), row("u2", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendDeduct(dp.EpsCost(0.5)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	wal := filepath.Join(dir, "acme", walName)
	body, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"shard":`) {
		t.Fatalf("new rows record carries a shard tag:\n%s", body)
	}
	// Two old-format records, tagged for shards 2 and 1.
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(
		frameBody(`{"seq":5,"type":"rows","rows":[[{"k":2,"s":"u3"},{"f":3}]],"rows_table":"events","shard":2}`) +
			frameBody(`{"seq":6,"type":"rows","rows":[[{"k":2,"s":"u4"},{"f":4}]],"rows_table":"events","shard":1}`)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if rec.Config.Shards != 4 {
		t.Fatalf("recovered config shards = %d", rec.Config.Shards)
	}
	tb := rec.Tables[0]
	if tb.Shards != 4 {
		t.Fatalf("recovered table shards = %d", tb.Shards)
	}
	want := [][]dpsql.Value{row("u1", 1), row("u2", 2), row("u3", 3), row("u4", 4)}
	if !reflect.DeepEqual(tb.Rows, want) {
		t.Fatalf("recovered rows %v, want %v", tb.Rows, want)
	}
	if len(rec.Deducts) != 1 || rec.Deducts[0].Eps != 0.5 {
		t.Fatalf("deducts: %+v", rec.Deducts)
	}
}

// TestUntaggedReplayIsShardZero: a log written before sharding (no shard
// count in the tenant config) recovers and imports as a single-shard
// table holding every row.
func TestUntaggedReplayIsShardZero(t *testing.T) {
	dir := seedStore(t) // the PR 3 idiom: untagged rows records
	s, rec := recoverOne(t, dir)
	defer s.Close()
	if rec.Config.Shards != 0 {
		t.Fatalf("legacy config grew shards = %d", rec.Config.Shards)
	}
	tb := rec.Tables[0]
	// The legacy state imports as a single-shard table with all rows.
	db := dpsql.NewDB()
	tab, err := db.Import(tb)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumShards() != 1 || tab.NumRows() != 3 {
		t.Fatalf("legacy import: shards=%d rows=%d", tab.NumShards(), tab.NumRows())
	}
}

// TestTornTailShardTaggedKeepsDeductions: tearing the buffered tail of a
// log, mid-way through an old-format shard-tagged rows record, drops at
// most trailing row batches — the fsynced deduction before them always
// survives, and so do the intact rows.
func TestTornTailShardTaggedKeepsDeductions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.CreateTenant("acme", shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendTable(eventsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendRows("events", 3, [][]dpsql.Value{row("u1", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendDeduct(dp.EpsCost(0.5)); err != nil { // fsync barrier
		t.Fatal(err)
	}
	if err := tl.AppendRows("events", 2, [][]dpsql.Value{row("u2", 2)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear mid-record: a crashed append of a tagged rows record.
	wal := filepath.Join(dir, "acme", walName)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`00000000 {"seq":9,"type":"rows","rows_table":"events","shard":1,"rows":[[{"k":2,"s":"u`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if len(rec.Deducts) != 1 || rec.Deducts[0].Eps != 0.5 {
		t.Fatalf("torn tagged tail lost the deduction: %+v", rec.Deducts)
	}
	tb := rec.Tables[0]
	if want := [][]dpsql.Value{row("u1", 1), row("u2", 2)}; !reflect.DeepEqual(tb.Rows, want) {
		t.Fatalf("intact rows %v, want %v", tb.Rows, want)
	}
}
