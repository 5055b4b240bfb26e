package dpsql

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// The shard benchmarks feed the CI bench-smoke artifact: ingest measures
// concurrent Insert striping across per-shard locks, the scan benchmarks
// measure the fan-out release readers. Run them alone with:
//
//	go test -bench BenchmarkShard -run '^$' ./internal/dpsql/

func benchSchema() []Column {
	return []Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}}
}

func BenchmarkShardIngest(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			db := NewDB()
			tab, err := db.CreateSharded("m", benchSchema(), "uid", n)
			if err != nil {
				b.Fatal(err)
			}
			uids := make([]Value, 4096)
			for i := range uids {
				uids[i] = Str(fmt.Sprintf("u%04d", i))
			}
			var ctr atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := ctr.Add(1)
					if err := tab.Insert(uids[i&4095], Float(float64(i))); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// goFanout is a goroutine-per-shard Fanout, standing in for the serve
// layer's worker-pool fan.
func goFanout(n int, run func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); run(i) }(i)
	}
	wg.Wait()
}

func benchFilled(b *testing.B, shards, rows int) (*DB, *Table) {
	b.Helper()
	db := NewDB()
	tab, err := db.CreateSharded("m", benchSchema(), "uid", shards)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]Value, rows)
	for i := range batch {
		batch[i] = []Value{Str(fmt.Sprintf("u%05d", i%5000)), Float(float64(i % 997))}
	}
	if err := tab.AppendRows(batch); err != nil {
		b.Fatal(err)
	}
	db.SetFanout(goFanout)
	return db, tab
}

// BenchmarkShardUserMeans times the per-user means read. The cold cases
// append one row of an existing user before every read, so each read
// misses the fold cache and scans every shard; the cached cases read an
// unchanged table and time the cache hit.
func BenchmarkShardUserMeans(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		for _, cold := range []bool{true, false} {
			name := fmt.Sprintf("shards=%d/cached", n)
			if cold {
				name = fmt.Sprintf("shards=%d/cold", n)
			}
			b.Run(name, func(b *testing.B) {
				_, tab := benchFilled(b, n, 20000)
				if _, err := tab.UserMeans("v"); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						if err := tab.Insert(Str(fmt.Sprintf("u%05d", i%5000)), Float(1)); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := tab.UserMeans("v"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkShardColumnFloats(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			_, tab := benchFilled(b, n, 20000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tab.ColumnFloats("v"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupedScan measures the bounded-contribution grouped release
// end to end: the per-shard scan (first-seen clamping over slot windows
// of group ordinals, each admitted row folded into its user's
// shard-local accumulator, every shard's window carved from one array
// per release), the merge of the shards' groups, the walk writing each
// user's sum or mean into its group's float slice in user-id order, and
// one noisy release per group — the scan a histogram or GROUP BY query
// pays. A release over an unchanged table reads its fold from the
// table's fold cache instead, so every case but the cached ones appends
// one row of an existing user before each release, which makes the
// release fold the table again. The workload/ cases have the shape of
// the grouped-sharded benchmark workload (20k users × 3 rows in 3 string
// groups); cached times the cache hit; newusers inserts one new user
// before every AVG release, so each release also pays the extension of
// the cached user order (a COUNT release reads the scan's user counts
// and needs no order).
func BenchmarkGroupedScan(b *testing.B) {
	schema := []Column{
		{Name: "uid", Kind: KindString},
		{Name: "v", Kind: KindFloat},
		{Name: "grp", Kind: KindString},
	}
	load := func(b *testing.B, shards, users, rowsPer, groups int) (*DB, *Table) {
		db := NewDB()
		tab, err := db.CreateSharded("m", schema, "uid", shards)
		if err != nil {
			b.Fatal(err)
		}
		batch := make([][]Value, 0, users*rowsPer)
		for i := 0; i < users*rowsPer; i++ {
			u := i % users
			batch = append(batch, []Value{
				Str(fmt.Sprintf("u%05d", u)),
				Float(float64(i % 997)),
				Str(fmt.Sprintf("g%d", u%groups)),
			})
		}
		if err := tab.AppendRows(batch); err != nil {
			b.Fatal(err)
		}
		db.SetFanout(goFanout)
		return db, tab
	}
	// run times releases of sql after one untimed release that fills the
	// fold cache; before, when set, runs ahead of every timed release.
	run := func(b *testing.B, db *DB, sql string, before func(i int)) {
		b.ReportAllocs()
		rng := xrand.New(1)
		if _, err := db.Exec(rng, sql, 1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if before != nil {
				before(i)
			}
			if _, err := db.Exec(rng, sql, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	// touch appends a row of an existing user (in its own group).
	touch := func(b *testing.B, tab *Table, users, groups int) func(i int) {
		return func(i int) {
			u := i % users
			if err := tab.Insert(Str(fmt.Sprintf("u%05d", u)), Float(1), Str(fmt.Sprintf("g%d", u%groups))); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			db, tab := load(b, n, 5000, 4, 8)
			run(b, db, "SELECT COUNT(*) FROM m GROUP BY grp", touch(b, tab, 5000, 8))
		})
	}
	for _, n := range []int{1, 16} {
		db, tab := load(b, n, 20000, 3, 3)
		for _, agg := range []string{"count", "avg", "median"} {
			sql := "SELECT COUNT(*) FROM m GROUP BY grp"
			if agg != "count" {
				sql = "SELECT " + agg + "(v) FROM m GROUP BY grp"
			}
			b.Run(fmt.Sprintf("workload/shards=%d/%s/cold", n, agg), func(b *testing.B) { run(b, db, sql, touch(b, tab, 20000, 3)) })
			b.Run(fmt.Sprintf("workload/shards=%d/%s/cached", n, agg), func(b *testing.B) { run(b, db, sql, nil) })
		}
		b.Run(fmt.Sprintf("workload/shards=%d/newusers", n), func(b *testing.B) {
			run(b, db, "SELECT AVG(v) FROM m GROUP BY grp", func(i int) {
				if err := tab.Insert(Str(fmt.Sprintf("new%07d", i)), Float(1), Str("g0")); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkColumnarScan measures the Exec release scan — vectorized
// predicate over the typed float column, the per-shard fold of each
// selected row into its user's accumulator, and the walk writing each
// user's mean in user-id order — end to end through a released answer
// (the mechanism itself is O(users) and cheap at this scale). A release
// with a WHERE clause is never served from the fold cache, so every
// iteration scans.
func BenchmarkColumnarScan(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			db, _ := benchFilled(b, n, 20000)
			rng := xrand.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(rng, "SELECT AVG(v) FROM m WHERE v < 500", 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
