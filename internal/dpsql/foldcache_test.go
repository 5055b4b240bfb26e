package dpsql

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// evCols is the schema groupedTwinQueries run on.
var evCols = []Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "g", Kind: KindString}, {Name: "f", Kind: KindFloat}}

// evRow draws a row of evCols for user uid from foldRow. v carries ±0
// everywhere, but NaN and ±Inf only in group g3, so the other groups'
// releases are finite and move with the data; the group key f is
// foldRow's int column as a float, NaN at its top value.
func evRow(rng *xrand.RNG, uid string) []Value {
	r := foldRow(rng, uid)
	v := r[1].F
	if r[3].S != "g3" && (math.IsNaN(v) || math.IsInf(v, 0)) {
		v = rng.Gaussian() * 1e3
	}
	f := r[2].F
	if f == 4 {
		f = math.NaN()
	}
	return []Value{r[0], Float(v), r[3], Float(f)}
}

// newEvTable creates table ev with evCols at the given shard count and
// appends rows.
func newEvTable(t *testing.T, shards int, rows [][]Value) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	tab, err := db.CreateSharded("ev", evCols, "uid", shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

// foldShapeOf names the fold a grouped query at bound reads: its GROUP BY
// column, the bound, and its distinct per-user inputs — SUM reads a
// column's sums, every other aggregate but COUNT its means. Queries with
// equal names share one cached fold; a WHERE query has no name ("").
func foldShapeOf(t *testing.T, sql string, bound int) string {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where != nil {
		return ""
	}
	var ins []string
	for _, spec := range q.Aggs {
		if spec.Kind == AggCount {
			continue
		}
		in := fmt.Sprintf("%s/%v", spec.Col, spec.Kind != AggSum)
		if !slices.Contains(ins, in) {
			ins = append(ins, in)
		}
	}
	return fmt.Sprint(q.GroupBy, bound, ins)
}

// sameMeans compares two UserMeans results bit for bit.
func sameMeans(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d means vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("mean %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// sameRelease compares two releases (or their errors) bit for bit.
func sameRelease(a *Result, aerr error, b *Result, berr error) error {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return fmt.Errorf("error %v vs %v", aerr, berr)
	}
	if aerr != nil {
		return nil
	}
	return sameGroupedResult(a, b)
}

// TestFoldCacheMatchesColdTwin: appends interleave with releases — rows
// of existing users, rows of new users, and a batch that lands in one
// shard — and every release of every groupedTwinQueries shape at bounds
// 1–3, and every UserMeans read, equals bit for bit what a freshly built
// twin table answers cold. Each bound gets its own table, so between two
// appends the releases use four folds (three SQL shapes and the means),
// all of which fit the cache: every first release after an append finds
// its shape's stale entry and must not use it. A repeat release with no
// append in between reports no shard scan; the first release of a fold
// shape after an append reports one per shard, and a WHERE release
// always scans.
func TestFoldCacheMatchesColdTwin(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		rng := xrand.New(uint64(100 + shards))
		draw := func(n int, uid func(i int) string) [][]Value {
			rows := make([][]Value, n)
			for i := range rows {
				rows[i] = evRow(rng, uid(i))
			}
			return rows
		}
		old := func(int) string { return fmt.Sprintf("u%02d", rng.Uint64()%40) }
		batches := [][][]Value{
			draw(240, old),
			draw(30, old),
			draw(30, func(i int) string {
				if i%2 == 0 {
					return fmt.Sprintf("n%02d", i)
				}
				return old(i)
			}),
			draw(5, func(int) string { return "u07" }), // one user: one shard
			draw(1, func(int) string { return "solo" }),
		}
		for bound := 1; bound <= 3; bound++ {
			var rows [][]Value
			db, tab := newEvTable(t, shards, nil)
			for step, batch := range batches {
				if err := tab.AppendRows(batch); err != nil {
					t.Fatal(err)
				}
				rows = append(rows, batch...)
				seen := map[string]bool{} // fold shapes released since the append
				for _, sql := range groupedTwinQueries {
					twinDB, _ := newEvTable(t, shards, rows)
					want, werr := twinDB.ExecTraced(xrand.New(9), sql, 1, ExecOpts{GroupBound: bound})
					shape := foldShapeOf(t, sql, bound)
					for rep := 0; rep < 2; rep++ {
						var scans atomic.Int64
						got, gerr := db.ExecTraced(xrand.New(9), sql, 1, ExecOpts{
							GroupBound:   bound,
							ObserveShard: func(int, int, time.Duration) { scans.Add(1) },
						})
						if err := sameRelease(got, gerr, want, werr); err != nil {
							t.Fatalf("shards=%d bound %d step %d %q release %d: %v", shards, bound, step, sql, rep, err)
						}
						wantScans := int64(0)
						if shape == "" || !seen[shape] {
							wantScans = int64(shards)
						}
						if n := scans.Load(); n != wantScans {
							t.Fatalf("shards=%d bound %d step %d %q release %d: %d shard scans, want %d", shards, bound, step, sql, rep, n, wantScans)
						}
						seen[shape] = shape != ""
					}
				}
				_, twin := newEvTable(t, shards, rows)
				want, err := twin.UserMeans("v")
				if err != nil {
					t.Fatal(err)
				}
				for rep := 0; rep < 2; rep++ {
					var scans atomic.Int64
					got, err := tab.UserMeans("v", func(int, int, time.Duration) { scans.Add(1) })
					if err != nil {
						t.Fatal(err)
					}
					if err := sameMeans(got, want); err != nil {
						t.Fatalf("shards=%d bound %d step %d UserMeans read %d: %v", shards, bound, step, rep, err)
					}
					if wantScans := int64(shards * (1 - rep)); scans.Load() != wantScans {
						t.Fatalf("shards=%d bound %d step %d UserMeans read %d: %d shard scans, want %d", shards, bound, step, rep, scans.Load(), wantScans)
					}
				}
			}
		}
	}
}

// TestFoldCacheKeysByShape: releases that differ only in bound, input
// form (a column's sums or its means), group column or grouping each
// read their own fold, never another shape's, on one unchanged table;
// releases of one shape share a fold, and an ungrouped release's bound
// is canonically 1. Every answer equals a cold twin's.
func TestFoldCacheKeysByShape(t *testing.T) {
	rng := xrand.New(77)
	rows := make([][]Value, 300)
	for i := range rows {
		rows[i] = evRow(rng, fmt.Sprintf("u%02d", rng.Uint64()%40))
	}
	db, _ := newEvTable(t, 4, rows)
	for _, c := range []struct {
		sql    string
		bound  int
		cached bool // a fold of the same shape was released before
	}{
		{"SELECT AVG(v) FROM ev GROUP BY g", 1, false},
		{"SELECT AVG(v) FROM ev GROUP BY g", 2, false},
		{"SELECT AVG(v) FROM ev GROUP BY g", 3, false},
		{"SELECT SUM(v) FROM ev GROUP BY g", 1, false},
		{"SELECT MEDIAN(v) FROM ev GROUP BY g", 1, true},
		{"SELECT AVG(v) FROM ev GROUP BY f", 1, false},
		{"SELECT AVG(v) FROM ev", 1, false},
		{"SELECT SUM(v), AVG(v) FROM ev", 1, false},
		{"SELECT AVG(v), SUM(v) FROM ev", 1, false},
		{"SELECT P25(v) FROM ev", 2, true}, // ungrouped: the bound is 1
	} {
		twinDB, _ := newEvTable(t, 4, rows)
		want, werr := twinDB.ExecTraced(xrand.New(3), c.sql, 1, ExecOpts{GroupBound: c.bound})
		var scans atomic.Int64
		got, gerr := db.ExecTraced(xrand.New(3), c.sql, 1, ExecOpts{
			GroupBound:   c.bound,
			ObserveShard: func(int, int, time.Duration) { scans.Add(1) },
		})
		if err := sameRelease(got, gerr, want, werr); err != nil {
			t.Fatalf("%q bound %d: %v", c.sql, c.bound, err)
		}
		if hit := scans.Load() == 0; hit != c.cached {
			t.Fatalf("%q bound %d: served from the cache %v, want %v", c.sql, c.bound, hit, c.cached)
		}
	}
}

// TestFoldCacheUnderConcurrentAppends races writers appending rows (new
// users among them) on a 16-shard table against readers releasing
// grouped AVG, MEDIAN and COUNT and reading UserMeans, so folds are
// looked up, computed and stored while the snapshots move (run under
// -race; CI runs it ten times). Once the writers stop, every shape's
// cached answer must equal a cold twin's.
func TestFoldCacheUnderConcurrentAppends(t *testing.T) {
	cols := []Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "grp", Kind: KindString}}
	groups := []string{"a", "b", "c"}
	db := NewDB()
	db.SetFanout(goFanout)
	tab, err := db.CreateSharded("events", cols, "uid", 16)
	if err != nil {
		t.Fatal(err)
	}
	seedRows := make([][]Value, 0, 192)
	for i := 0; i < 192; i++ {
		u := i % 64
		seedRows = append(seedRows, []Value{Str(fmt.Sprintf("s%03d", u)), Float(float64(i % 89)), Str(groups[u%3])})
	}
	if err := tab.AppendRows(seedRows); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT AVG(v) FROM events GROUP BY grp",
		"SELECT MEDIAN(v) FROM events GROUP BY grp",
		"SELECT COUNT(*) FROM events GROUP BY grp",
	}
	p := newPacer()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, ok := p.next()
				if !ok {
					return
				}
				uid := fmt.Sprintf("s%03d", i%64) // an existing user ...
				if i%3 == 0 {
					uid = fmt.Sprintf("w%d-%05d", w, i) // ... or a new one
				}
				batch := [][]Value{{Str(uid), Float(float64(i % 97)), Str(groups[i%3])}}
				if err := tab.AppendRows(batch); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				p.done.Add(1)
			}
		}(w)
	}
	for i := 0; i < 60 && !t.Failed(); i++ {
		var (
			rd    sync.WaitGroup
			errs  [4]error
			means []float64
		)
		p.read(t, 6, func() {
			rd.Add(4)
			for q, sql := range queries {
				go func() {
					defer rd.Done()
					for rep := 0; rep < 2 && errs[q] == nil; rep++ {
						var res *Result
						res, errs[q] = db.Exec(xrand.New(uint64(i)), sql, 1)
						if errs[q] == nil && len(res.Rows) != len(groups) {
							errs[q] = fmt.Errorf("%q: %d groups", sql, len(res.Rows))
						}
					}
				}()
			}
			go func() { defer rd.Done(); means, errs[3] = tab.UserMeans("v") }()
			rd.Wait()
		})
		for _, err := range errs {
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		if len(means) < 64 {
			t.Fatalf("read %d: %d means", i, len(means))
		}
	}
	p.close()
	wg.Wait()

	twin := NewDB()
	if _, err := twin.Import(tab.Export()); err != nil {
		t.Fatal(err)
	}
	twinTab, err := twin.TableByName("events")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range queries {
		want, werr := twin.Exec(xrand.New(5), sql, 1)
		for rep := 0; rep < 2; rep++ {
			got, gerr := db.Exec(xrand.New(5), sql, 1)
			if err := sameRelease(got, gerr, want, werr); err != nil {
				t.Fatalf("%q release %d after the writers stopped: %v", sql, rep, err)
			}
		}
	}
	want, err := twinTab.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := tab.UserMeans("v")
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMeans(got, want); err != nil {
			t.Fatalf("UserMeans read %d after the writers stopped: %v", rep, err)
		}
	}
}
