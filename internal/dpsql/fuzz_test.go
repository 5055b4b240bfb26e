package dpsql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// FuzzParse asserts the query parser never panics and that accepted
// queries satisfy basic well-formedness invariants. `go test` runs the
// seed corpus; `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT AVG(x) FROM t",
		"SELECT COUNT(*), SUM(y) FROM t WHERE a = 1 AND (b < 2 OR NOT c >= 'z') GROUP BY d",
		"select median(v) from data where s = 'O''Brien'",
		"SELECT P99(x) FROM t",
		"SELECT AVG(x) FROM t WHERE x = -1.5e-3",
		"SELECT",
		"garbage input (((",
		"SELECT AVG(x) FROM t WHERE x ! 3",
		strings.Repeat("(", 50),
		"SELECT AVG(x) FROM t WHERE " + strings.Repeat("a=1 AND ", 30) + "b=2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		if err != nil {
			return
		}
		if len(q.Aggs) == 0 {
			t.Errorf("accepted query with no aggregates: %q", sql)
		}
		if q.Table == "" {
			t.Errorf("accepted query with no table: %q", sql)
		}
	})
}

// groupedTwinQueries is the GROUP BY query pool the twin fuzz draws
// from. It covers NaN group keys (the float column f carries NaNs),
// groups emptied by the WHERE clause, groups under the 4-user floor
// (the rare group "t" has 3 users, so quantile aggregates error), and
// multi-aggregate SELECT lists.
var groupedTwinQueries = []string{
	"SELECT COUNT(*) FROM ev GROUP BY g",
	"SELECT AVG(v) FROM ev GROUP BY g",
	"SELECT MEDIAN(v), COUNT(*) FROM ev GROUP BY g",
	"SELECT COUNT(*) FROM ev GROUP BY f",           // float keys incl. NaN
	"SELECT AVG(v) FROM ev WHERE v < 0 GROUP BY g", // empties every group
	"SELECT SUM(v) FROM ev WHERE f < 2 GROUP BY g", // NaN rows filtered out
	"SELECT VAR(v), P75(v) FROM ev GROUP BY g",
	"SELECT COUNT(*) FROM ev WHERE g = 't' GROUP BY g",
}

// fuzzRows derives a deterministic grouped dataset from seed: 5 groups
// (one rare 3-user group "t" under the quantile floor), interleaved
// multi-row users, a float column with NaN group keys mixed in.
func fuzzRows(seed int64) [][]Value {
	rng := xrand.New(uint64(seed))
	nUsers := 8 + int(rng.Uint64()%40)
	nRows := 4 * nUsers
	groups := []string{"a", "b", "c", "d"}
	var rows [][]Value
	for i := 0; i < nRows; i++ {
		uid := fmt.Sprintf("u%03d", rng.Uint64()%uint64(nUsers))
		v := math.Exp(1 + rng.Gaussian())
		f := float64(rng.Uint64() % 3)
		if rng.Uint64()%7 == 0 {
			f = math.NaN()
		}
		rows = append(rows, []Value{Str(uid), Float(v), Str(groups[rng.Uint64()%uint64(len(groups))]), Float(f)})
	}
	// The rare group: three dedicated users seen only in "t".
	for i := 0; i < 3; i++ {
		rows = append(rows, []Value{Str(fmt.Sprintf("t%d", i)), Float(1 + float64(i)), Str("t"), Float(0)})
	}
	return rows
}

// sameGroupedResult compares released rows bit-for-bit, treating NaN as
// equal to itself (reflect.DeepEqual would not) — group keys can be NaN
// by construction.
func sameGroupedResult(a, b *Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.HasGroup != rb.HasGroup || ra.Group.Kind != rb.Group.Kind ||
			ra.Group.S != rb.Group.S || bits(ra.Group.F) != bits(rb.Group.F) {
			return fmt.Errorf("row %d: group %v vs %v", i, ra.Group, rb.Group)
		}
		if len(ra.Values) != len(rb.Values) || bits(ra.Value) != bits(rb.Value) {
			return fmt.Errorf("row %d: values %v vs %v", i, ra.Values, rb.Values)
		}
		for j := range ra.Values {
			if bits(ra.Values[j]) != bits(rb.Values[j]) {
				return fmt.Errorf("row %d agg %d: %v vs %v", i, j, ra.Values[j], rb.Values[j])
			}
		}
	}
	return nil
}

// FuzzGroupedTwin asserts that for any dataset, contribution bound, and
// GROUP BY query, sharded twins (N=4, 16) release answers bit-for-bit
// identical to the single-shard twin — same rows, same group keys, same
// noise draws — or fail with the identical error; that after one more
// row lands, a second release of the query on the same sharded table
// (whose first fold may be cached) matches a fresh single-shard twin
// holding that row too; and that a sharded Export→Import→Export
// round-trip is lossless and answer-preserving.
func FuzzGroupedTwin(f *testing.F) {
	f.Add(int64(1), int8(0), uint8(0))
	f.Add(int64(2), int8(1), uint8(3))
	f.Add(int64(3), int8(2), uint8(2))
	f.Add(int64(4), int8(2), uint8(4))
	f.Add(int64(5), int8(3), uint8(7))
	f.Add(int64(6), int8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, boundSel int8, qSel uint8) {
		bound := []int{0, 1, 2, 3}[int(uint8(boundSel))%4]
		sql := groupedTwinQueries[int(qSel)%len(groupedTwinQueries)]
		rows := fuzzRows(seed)

		build := func(shards int, rows [][]Value) *DB {
			db := NewDB()
			db.SetDefaultShards(shards)
			tab, err := db.Create("ev", evCols, "uid")
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
			return db
		}
		run := func(db *DB) (*Result, error) {
			return db.ExecTraced(xrand.New(7), sql, 1, ExecOpts{GroupBound: bound})
		}

		// The extra row comes from another seed's dataset: its user may
		// be new to this one or already in it.
		extra := fuzzRows(seed + 1)[0]
		r1, err1 := run(build(1, rows))
		r1x, err1x := run(build(1, append(rows[:len(rows):len(rows)], extra)))
		for _, n := range []int{4, 16} {
			dbn := build(n, rows)
			rn, errn := run(dbn)
			if err := sameRelease(rn, errn, r1, err1); err != nil {
				t.Fatalf("%s bound=%d N=%d: %v", sql, bound, n, err)
			}
			tab, err := dbn.TableByName("ev")
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.Insert(extra...); err != nil {
				t.Fatal(err)
			}
			rn, errn = run(dbn)
			if err := sameRelease(rn, errn, r1x, err1x); err != nil {
				t.Fatalf("%s bound=%d N=%d after one more row: %v", sql, bound, n, err)
			}
		}

		// Export→Import→Export round-trip on a sharded twin: states equal,
		// answers (or errors) unchanged.
		db4 := build(4, rows)
		st := db4.Export()[0]
		dbi := NewDB()
		dbi.SetDefaultShards(4)
		if _, err := dbi.Import(st); err != nil {
			t.Fatal(err)
		}
		st2 := dbi.Export()[0]
		if fmt.Sprintf("%v", st) != fmt.Sprintf("%v", st2) {
			t.Fatalf("%s: Export→Import→Export changed the state", sql)
		}
		ri, erri := run(dbi)
		if err := sameRelease(ri, erri, r1, err1); err != nil {
			t.Fatalf("%s bound=%d imported twin: %v", sql, bound, err)
		}
	})
}

// FuzzRun asserts the statement parser never panics.
func FuzzRun(f *testing.F) {
	seeds := []string{
		"CREATE TABLE t (u STRING USER, x FLOAT)",
		"INSERT INTO t VALUES ('a', 1.5), ('b', -2)",
		"CREATE TABLE t (u STRING USER,)",
		"INSERT INTO t VALUES (",
		"DROP TABLE t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		db := NewDB()
		_ = db.Run(sql) // must not panic
	})
}
