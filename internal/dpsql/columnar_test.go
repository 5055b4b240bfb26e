package dpsql

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/xrand"
)

// The columnar engine's contract is that it is a pure storage
// reorganization: every reader, predicate, and release must produce the
// exact bits a row-oriented store folding rows in insertion order would.
// The shard twin tests (shard_test.go) check topologies against each
// other; the tests here check the engine against an independent
// row-oriented reference implementation, force the chunked parallel
// collapse on small fixtures, and stress ingest against vectorized scans
// under the race detector.

// rowFixture builds a table at the given shard count and returns the
// exact rows fed to it, in insertion order — the reference a row store
// would hold.
func rowFixture(t *testing.T, shards, n int) (*DB, *Table, [][]Value) {
	t.Helper()
	db := NewDB()
	db.SetDefaultShards(shards)
	tab, err := db.Create("events",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "n", Kind: KindInt}, {Name: "grp", Kind: KindString}},
		"uid")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	groups := []string{"x", "y", "z"}
	var rows [][]Value
	for i := 0; i < n; i++ {
		row := []Value{
			Str(fmt.Sprintf("u%03d", i%101)),
			Float(math.Exp(1 + rng.Gaussian())),
			Int(int64(i%23) - 11),
			Str(groups[i%3]),
		}
		if err := tab.Insert(row...); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return db, tab, rows
}

// refUserMeans is the row-oriented reference: walk rows in insertion
// order, fold each user's values left to right, means sorted by id.
func refUserMeans(rows [][]Value, col int) []float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	var ids []string
	for _, r := range rows {
		uid := r[0].S
		if _, ok := counts[uid]; !ok {
			ids = append(ids, uid)
		}
		sums[uid] += r[col].F
		counts[uid]++
	}
	sort.Strings(ids)
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = sums[id] / float64(counts[id])
	}
	return out
}

func refUserIntSums(rows [][]Value, col int) []int64 {
	sums := map[string]int64{}
	var ids []string
	for _, r := range rows {
		uid := r[0].S
		if _, ok := sums[uid]; !ok {
			ids = append(ids, uid)
		}
		sums[uid] += int64(r[col].F)
	}
	sort.Strings(ids)
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = sums[id]
	}
	return out
}

// TestColumnarRowReference: the typed-column readers must be bit-for-bit
// identical to a row store's insertion-order fold, at every topology.
func TestColumnarRowReference(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		_, tab, rows := rowFixture(t, shards, 700)

		want := refUserMeans(rows, 1)
		got, err := tab.UserMeans("v")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: UserMeans diverged from row reference", shards)
		}

		wantSums := refUserIntSums(rows, 2)
		gotSums, err := tab.UserIntSums("n")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSums, wantSums) {
			t.Fatalf("shards=%d: UserIntSums diverged from row reference", shards)
		}

		if nu := tab.NumUsers(); nu != len(want) {
			t.Fatalf("shards=%d: NumUsers = %d, want %d", shards, nu, len(want))
		}

		wantF := make([]float64, len(rows))
		wantI := make([]int64, len(rows))
		for i, r := range rows {
			wantF[i] = r[1].F
			wantI[i] = int64(r[2].F)
		}
		gotF, _ := tab.ColumnFloats("v")
		gotI, _ := tab.ColumnInts("n")
		if !reflect.DeepEqual(gotF, wantF) {
			t.Fatalf("shards=%d: ColumnFloats lost insertion order", shards)
		}
		if !reflect.DeepEqual(gotI, wantI) {
			t.Fatalf("shards=%d: ColumnInts lost insertion order", shards)
		}
	}
}

// TestColumnarPredicateRowReference: the vectorized evalShard must agree
// with the scalar row Eval on every row, for every comparison shape —
// including NaN, which Value.Compare treats as equal to everything.
func TestColumnarPredicateRowReference(t *testing.T) {
	db := NewDB()
	db.SetDefaultShards(3)
	tab, err := db.Create("p",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "n", Kind: KindInt}, {Name: "g", Kind: KindString}},
		"uid")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	for i := 0; i < 200; i++ {
		v := float64(i%13) - 6
		if i%17 == 0 {
			v = math.NaN()
		}
		row := []Value{Str(fmt.Sprintf("u%02d", i%29)), Float(v), Int(int64(i % 7)), Str([]string{"a", "b"}[i%2])}
		if err := tab.Insert(row...); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	for _, where := range []string{
		"v < 3", "v <= 3", "v = 0", "v != 0", "v >= -2", "v > -2",
		"n = 4", "n < 2", "g = 'a'", "g != 'b'",
		"v < 3 AND n > 1", "g = 'a' OR v > 4", "NOT v < 0",
		"v < 2 AND (g = 'b' OR n = 3)",
	} {
		q, err := Parse("SELECT COUNT(*) FROM p WHERE " + where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if err := q.Where.validate(tab); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		// Scalar reference over the retained rows, in insertion order.
		want := make([]bool, len(rows))
		for i, r := range rows {
			ok, err := q.Where.Eval(tab, r)
			if err != nil {
				t.Fatalf("%s row %d: %v", where, i, err)
			}
			want[i] = ok
		}
		// Vectorized evaluation per shard, scattered back to global order
		// via each row's sequence number.
		got := make([]bool, len(rows))
		for _, sn := range tab.shardSnapshots() {
			sel := make([]bool, sn.n)
			q.Where.evalShard(tab, sn, sel)
			for i := 0; i < sn.n; i++ {
				got[sn.seqs[i]] = sel[i]
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("WHERE %s: vectorized selection diverged from row Eval", where)
		}
	}
}

// TestColumnarChunkedCollapseExact: the parallel chunked collapse must
// return the same bits as the sequential per-shard fold — the fixture is
// small, so the chunk knobs are shrunk to force chunking, and a real
// goroutine fanout is installed so the chunk fan actually runs nested
// inside the shard fan.
func TestColumnarChunkedCollapseExact(t *testing.T) {
	_, tab, _ := rowFixture(t, 2, 1200)
	seqMeans, err := tab.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	seqSums, err := tab.UserIntSums("n")
	if err != nil {
		t.Fatal(err)
	}

	defer func(r, m, x int) { scanChunkRows, scanChunkMin, scanChunkMax = r, m, x }(scanChunkRows, scanChunkMin, scanChunkMax)
	scanChunkRows, scanChunkMin, scanChunkMax = 64, 128, 32
	tab.setFanout(func(n int, run func(int)) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); run(i) }(i)
		}
		wg.Wait()
	})
	defer tab.setFanout(nil)

	for trial := 0; trial < 5; trial++ { // schedule-independence, not luck
		chMeans, err := tab.UserMeans("v")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(chMeans, seqMeans) {
			t.Fatal("chunked UserMeans diverged from sequential fold")
		}
		chSums, err := tab.UserIntSums("n")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(chSums, seqSums) {
			t.Fatal("chunked UserIntSums diverged from sequential fold")
		}
	}
}

// TestColumnarExecSeedStability: same seed, same query, same answer bits
// — across shard counts AND with chunked scans forced. Releases are where
// bit drift would become user-visible, so this is the end-to-end check.
func TestColumnarExecSeedStability(t *testing.T) {
	queries := []string{
		"SELECT AVG(v) FROM events WHERE v < 10",
		"SELECT SUM(n), COUNT(*) FROM events GROUP BY grp",
		"SELECT MEDIAN(v), P25(v) FROM events GROUP BY grp",
	}
	db1, _, _ := rowFixture(t, 1, 700)
	ref := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := db1.Exec(xrand.New(11), q, 2)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		ref[i] = r
	}
	defer func(r, m, x int) { scanChunkRows, scanChunkMin, scanChunkMax = r, m, x }(scanChunkRows, scanChunkMin, scanChunkMax)
	scanChunkRows, scanChunkMin, scanChunkMax = 32, 64, 32
	for _, shards := range []int{3, 16} {
		db, _, _ := rowFixture(t, shards, 700)
		db.SetFanout(func(n int, run func(int)) {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) { defer wg.Done(); run(i) }(i)
			}
			wg.Wait()
		})
		for i, q := range queries {
			r, err := db.Exec(xrand.New(11), q, 2)
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, q, err)
			}
			if len(r.Rows) != len(ref[i].Rows) {
				t.Fatalf("shards=%d %s: %d vs %d rows", shards, q, len(r.Rows), len(ref[i].Rows))
			}
			for j := range r.Rows {
				if !reflect.DeepEqual(r.Rows[j].Values, ref[i].Rows[j].Values) {
					t.Fatalf("shards=%d %s row %d: %v vs %v", shards, q, j, r.Rows[j].Values, ref[i].Rows[j].Values)
				}
			}
		}
	}
}

// TestColumnarImportRoundTripBits: Export -> Import -> Export must be a
// fixed point, and a pre-columnar TableState (plain rows, no topology)
// must import into the columnar engine with identical reader bits.
func TestColumnarImportRoundTripBits(t *testing.T) {
	_, tab, rows := rowFixture(t, 4, 500)
	st := tab.Export()
	db2 := NewDB()
	db2.SetDefaultShards(4)
	tab2, err := db2.Import(st)
	if err != nil {
		t.Fatal(err)
	}
	st2 := tab2.Export()
	if !reflect.DeepEqual(st, st2) {
		t.Fatal("Export -> Import -> Export is not a fixed point")
	}

	// A pre-columnar, pre-shard snapshot is just rows: importing it must
	// land the same bits the live inserts produced.
	legacy := TableState{Name: "events", Columns: st.Columns, UserCol: "uid", Rows: rows}
	db3 := NewDB()
	tab3, err := db3.Import(legacy)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := tab.UserMeans("v")
	m3, _ := tab3.UserMeans("v")
	if !reflect.DeepEqual(m1, m3) {
		t.Fatal("pre-columnar state imported into different UserMeans")
	}
	f1, _ := tab.ColumnFloats("v")
	f3, _ := tab3.ColumnFloats("v")
	if !reflect.DeepEqual(f1, f3) {
		t.Fatal("pre-columnar state imported into different row order")
	}
}

// TestTableShardCacheLines: tableShard is sized to a whole number of
// 64-byte cache lines so the shard array never false-shares a line
// between two shards' write locks (PR 7's nextSeq cliff, shard edition).
func TestTableShardCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(tableShard{}); sz%64 != 0 {
		t.Fatalf("tableShard is %d bytes — not a whole number of cache lines; adjacent shards will false-share", sz)
	}
}

// TestColumnarConcurrentStress: concurrent ingest, vectorized scans,
// releases, and exports on the same table — the race detector's view of
// the columnar engine's locking (run under -race in CI).
func TestColumnarConcurrentStress(t *testing.T) {
	db := NewDB()
	db.SetDefaultShards(4)
	tab, err := db.Create("s",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "n", Kind: KindInt}},
		"uid")
	if err != nil {
		t.Fatal(err)
	}
	db.SetFanout(func(n int, run func(int)) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); run(i) }(i)
		}
		wg.Wait()
	})
	defer func(r, m, x int) { scanChunkRows, scanChunkMin, scanChunkMax = r, m, x }(scanChunkRows, scanChunkMin, scanChunkMax)
	scanChunkRows, scanChunkMin, scanChunkMax = 64, 128, 32

	// Enough users for a release before any reader starts, so every Exec
	// below must succeed.
	const seeded = 4
	for u := 0; u < seeded; u++ {
		if err := tab.Insert(Str(fmt.Sprintf("seed-u%d", u)), Float(float64(u)), Int(0)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				uid := fmt.Sprintf("w%d-u%02d", w, i%37)
				if err := tab.Insert(Str(uid), Float(float64(i)), Int(int64(i%5))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := tab.UserMeans("v"); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Exec(xrand.New(uint64(i)), "SELECT AVG(v) FROM s WHERE n < 3", 1); err != nil {
					t.Error(err)
					return
				}
				if st := tab.Export(); len(st.Rows) < seeded {
					t.Error("export lost rows")
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got := tab.NumRows(); got != seeded+3*400 {
		t.Fatalf("lost rows: %d of %d", got, seeded+3*400)
	}
}
