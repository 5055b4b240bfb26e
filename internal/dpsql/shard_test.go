package dpsql

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// buildTwin creates a table with the given shard count and loads a fixed
// heavy-tailed dataset with several rows per user, interleaved so users
// arrive out of order (the shape that would expose ordering bugs in the
// shard merge).
func buildTwin(t *testing.T, shards int) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	db.SetDefaultShards(shards)
	tab, err := db.Create("events",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "n", Kind: KindInt}, {Name: "grp", Kind: KindString}},
		"uid")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(42)
	groups := []string{"a", "b", "c"}
	for i := 0; i < 900; i++ {
		uid := fmt.Sprintf("u%03d", i%137) // ~137 users, ~6-7 rows each, interleaved
		v := math.Exp(2 + rng.Gaussian())  // lognormal, no natural bound
		n := int64(i%17) - 8
		if err := tab.Insert(Str(uid), Float(v), Int(n), Str(groups[i%3])); err != nil {
			t.Fatal(err)
		}
	}
	return db, tab
}

// TestShardReaderEquivalence: every reader must be bit-for-bit identical
// between a sharded table and its unsharded twin — the merge of per-shard
// partials is pure reorganization, not approximation.
func TestShardReaderEquivalence(t *testing.T) {
	_, t1 := buildTwin(t, 1)
	for _, n := range []int{2, 4, 16} {
		_, tn := buildTwin(t, n)
		if tn.NumShards() != n {
			t.Fatalf("NumShards = %d, want %d", tn.NumShards(), n)
		}
		if t1.NumRows() != tn.NumRows() || t1.NumUsers() != tn.NumUsers() {
			t.Fatalf("N=%d: rows/users %d/%d vs %d/%d", n, tn.NumRows(), tn.NumUsers(), t1.NumRows(), t1.NumUsers())
		}
		m1, err := t1.UserMeans("v")
		if err != nil {
			t.Fatal(err)
		}
		mn, err := tn.UserMeans("v")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m1, mn) {
			t.Fatalf("N=%d: UserMeans diverged", n)
		}
		z1, _ := t1.UserIntSums("n")
		zn, _ := tn.UserIntSums("n")
		if !reflect.DeepEqual(z1, zn) {
			t.Fatalf("N=%d: UserIntSums diverged", n)
		}
		f1, _ := t1.ColumnFloats("v")
		fn, _ := tn.ColumnFloats("v")
		if !reflect.DeepEqual(f1, fn) {
			t.Fatalf("N=%d: ColumnFloats lost insertion order", n)
		}
		i1, _ := t1.ColumnInts("n")
		in, _ := tn.ColumnInts("n")
		if !reflect.DeepEqual(i1, in) {
			t.Fatalf("N=%d: ColumnInts lost insertion order", n)
		}
	}
}

// TestShardExecEquivalence: for a fixed RNG seed, released SQL answers
// (WHERE + GROUP BY + every aggregate family) must be identical across
// shard counts — the fan-out scan merges before the mechanism runs.
func TestShardExecEquivalence(t *testing.T) {
	db1, _ := buildTwin(t, 1)
	db4, _ := buildTwin(t, 4)
	queries := []string{
		"SELECT AVG(v) FROM events",
		"SELECT SUM(v), COUNT(*) FROM events WHERE v < 20",
		"SELECT MEDIAN(v) FROM events GROUP BY grp",
		"SELECT VAR(v), P75(v) FROM events GROUP BY grp",
	}
	for _, q := range queries {
		r1, err := db1.Exec(xrand.New(7), q, 2)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		r4, err := db4.Exec(xrand.New(7), q, 2)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(r1.Rows) != len(r4.Rows) {
			t.Fatalf("%s: %d vs %d rows", q, len(r1.Rows), len(r4.Rows))
		}
		for i := range r1.Rows {
			if !reflect.DeepEqual(r1.Rows[i].Values, r4.Rows[i].Values) {
				t.Fatalf("%s row %d: %v (N=1) vs %v (N=4)", q, i, r1.Rows[i].Values, r4.Rows[i].Values)
			}
			if r1.Rows[i].Group.String() != r4.Rows[i].Group.String() {
				t.Fatalf("%s row %d: group %q vs %q", q, i, r1.Rows[i].Group, r4.Rows[i].Group)
			}
		}
	}
}

// TestShardExportImportRoundTrip: a sharded export carries topology, and
// importing it rebuilds the same partitioning and the same answers.
func TestShardExportImportRoundTrip(t *testing.T) {
	_, tab := buildTwin(t, 4)
	st := tab.Export()
	if st.Shards != 4 || len(st.ShardOf) != len(st.Rows) {
		t.Fatalf("export topology: shards=%d shard_of=%d rows=%d", st.Shards, len(st.ShardOf), len(st.Rows))
	}
	db2 := NewDB()
	db2.SetDefaultShards(4)
	tab2, err := db2.Import(st)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.NumShards() != 4 {
		t.Fatalf("imported shards = %d", tab2.NumShards())
	}
	f1, _ := tab.ColumnFloats("v")
	f2, _ := tab2.ColumnFloats("v")
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("round-trip lost insertion order")
	}
	st2 := tab2.Export()
	if !reflect.DeepEqual(st.ShardOf, st2.ShardOf) {
		t.Fatal("round-trip changed row placement")
	}
}

// TestShardImportReshards: importing under a different target shard count
// reshards by hash — readers are unchanged, only storage moves.
func TestShardImportReshards(t *testing.T) {
	_, tab := buildTwin(t, 4)
	st := tab.Export()
	for _, target := range []int{1, 2, 16} {
		db2 := NewDB()
		db2.SetDefaultShards(target)
		tab2, err := db2.Import(st)
		if err != nil {
			t.Fatal(err)
		}
		if tab2.NumShards() != target {
			t.Fatalf("imported shards = %d, want %d", tab2.NumShards(), target)
		}
		m1, _ := tab.UserMeans("v")
		m2, _ := tab2.UserMeans("v")
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("reshard to %d changed UserMeans", target)
		}
		f1, _ := tab.ColumnFloats("v")
		f2, _ := tab2.ColumnFloats("v")
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("reshard to %d changed insertion order", target)
		}
	}
}

// TestShardImportPreShardState: a TableState written before sharding (no
// Shards, no ShardOf) imports cleanly into a single shard, and into a
// sharded target by hash.
func TestShardImportPreShardState(t *testing.T) {
	st := TableState{
		Name:    "legacy",
		Columns: []Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}},
		UserCol: "uid",
		Rows: [][]Value{
			{Str("u1"), Float(1)}, {Str("u2"), Float(2)}, {Str("u1"), Float(3)},
		},
	}
	db := NewDB()
	tab, err := db.Import(st)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumShards() != 1 || tab.NumRows() != 3 {
		t.Fatalf("legacy import: shards=%d rows=%d", tab.NumShards(), tab.NumRows())
	}
	db4 := NewDB()
	db4.SetDefaultShards(4)
	tab4, err := db4.Import(st)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := tab.UserMeans("v")
	m4, _ := tab4.UserMeans("v")
	if !reflect.DeepEqual(m1, m4) {
		t.Fatal("legacy state resharded into different answers")
	}
}

// TestInsertShardRouting: a user's rows always land in one shard, Insert
// and AppendRows agree on the destination, and InsertShard reports it.
func TestInsertShardRouting(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateSharded("r",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}}, "uid", 8)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for i := 0; i < 50; i++ {
		uid := fmt.Sprintf("user-%d", i%10)
		si, err := tab.InsertShard(Str(uid), Float(float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := want[uid]; ok && prev != si {
			t.Fatalf("user %q split across shards %d and %d", uid, prev, si)
		}
		want[uid] = si
	}
	if err := tab.AppendRows([][]Value{{Str("user-3"), Float(99)}}); err != nil {
		t.Fatal(err)
	}
	st := tab.Export()
	last := st.ShardOf[len(st.ShardOf)-1]
	if last != want["user-3"] {
		t.Fatalf("AppendRows routed user-3 to shard %d, Insert used %d", last, want["user-3"])
	}
}

// TestShardFanout: an installed Fanout is actually used by the fan-out
// readers and changes no answers.
func TestShardFanout(t *testing.T) {
	db, tab := buildTwin(t, 4)
	seqMeans, err := tab.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	db.SetFanout(func(n int, run func(int)) {
		calls.Add(1)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); run(i) }(i)
		}
		wg.Wait()
	})
	fanMeans, err := tab.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("fanout not used")
	}
	if !reflect.DeepEqual(seqMeans, fanMeans) {
		t.Fatal("parallel fan-out changed answers")
	}
	if _, err := db.Exec(xrand.New(3), "SELECT AVG(v) FROM events GROUP BY grp", 1); err != nil {
		t.Fatal(err)
	}
	if calls.Load() < 2 {
		t.Fatal("Exec scan did not use the fanout")
	}
}

// TestGroupedReleaseAllocFlatInShards: with the fan-out sequential, a
// grouped release must allocate about the same bytes at 16 shards as at
// 1 — no per-shard user-sized scratch, no sort buffers. The table has the
// grouped benchmark workload's shape: 20k users × 3 rows in 3 string
// groups, released as COUNT, AVG and MEDIAN.
func TestGroupedReleaseAllocFlatInShards(t *testing.T) {
	perRelease := func(shards int) uint64 {
		db := NewDB()
		tab, err := db.CreateSharded("m", []Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "grp", Kind: KindString}}, "uid", shards)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(1)
		batch := make([][]Value, 0, 60000)
		for u := 0; u < 20000; u++ {
			for r := 0; r < 3; r++ {
				batch = append(batch, []Value{Str(fmt.Sprintf("u%06d", u)), Float(250 + 30*rng.Gaussian()), Str(fmt.Sprintf("g%d", u%3))})
			}
		}
		if err := tab.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		queries := []string{
			"SELECT COUNT(*) FROM m GROUP BY grp",
			"SELECT AVG(v) FROM m GROUP BY grp",
			"SELECT MEDIAN(v) FROM m GROUP BY grp",
		}
		if _, err := db.Exec(rng, queries[0], 1); err != nil { // builds the cached user order
			t.Fatal(err)
		}
		best := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, q := range queries {
				if _, err := db.Exec(rng, q, 1); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			best = min(best, (m1.TotalAlloc-m0.TotalAlloc)/uint64(len(queries)))
		}
		return best
	}
	one, sixteen := perRelease(1), perRelease(16)
	t.Logf("bytes per grouped release: %d at 1 shard, %d at 16 (%.3fx)", one, sixteen, float64(sixteen)/float64(one))
	if float64(sixteen) > 1.1*float64(one) {
		t.Fatalf("16 shards allocate %d bytes per grouped release, more than 1.1x the %d at 1 shard", sixteen, one)
	}
}
