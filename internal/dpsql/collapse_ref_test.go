package dpsql

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refCollapseSelectionSeq is the sequential reference fold for
// collapseSelection: one map pass in shard order, rows in selection
// order — the exact fold the row store ran — then the users sorted by id.
func refCollapseSelectionSeq(t *Table, snaps []shardSnap, parts []selPart, colIx int) []userAgg {
	var kind Kind
	if colIx >= 0 {
		kind = t.Columns[colIx].Kind
	}
	users := map[string]*userAgg{}
	ids := make([]string, 0, 64)
	for _, p := range parts {
		sn := snaps[p.shard]
		for _, i := range p.idx {
			uid := sn.uids[sn.uix[i]]
			u, ok := users[uid]
			if !ok {
				u = &userAgg{}
				users[uid] = u
				ids = append(ids, uid)
			}
			if colIx >= 0 {
				u.sum += sn.float(kind, colIx, int(i))
			}
			u.count++
		}
	}
	sort.Strings(ids)
	out := make([]userAgg, len(ids))
	for i, uid := range ids {
		out[i] = *users[uid]
	}
	return out
}

// refGroupedExec is the row-at-a-time reference for a GROUP BY release on
// a hash-routed table: rows in insertion order, the WHERE predicate by
// Eval, keys by Value.String, each user clamped to its first bound
// groups (bound -1: unclamped), per-user folds by map, groups and users
// sorted by key and id, then the same mechanism calls Exec makes.
func refGroupedExec(rng *xrand.RNG, t *Table, rows [][]Value, q *Query, eps float64, bound int) ([]ResultRow, error) {
	gix, err := t.ColumnIndex(q.GroupBy)
	if err != nil {
		return nil, err
	}
	type group struct {
		key  Value
		rows [][]Value
	}
	groups := map[string]*group{}
	admitted := map[string][]string{}
	for _, r := range rows {
		if q.Where != nil {
			if ok, err := q.Where.Eval(t, r); err != nil || !ok {
				continue
			}
		}
		key, uid := r[gix].String(), r[t.userIx].String()
		if bound >= 1 {
			in := false
			for _, k := range admitted[uid] {
				in = in || k == key
			}
			if !in {
				if len(admitted[uid]) >= bound {
					continue
				}
				admitted[uid] = append(admitted[uid], key)
			}
		}
		g := groups[key]
		if g == nil {
			g = &group{key: r[gix]}
			groups[key] = g
		}
		g.rows = append(g.rows, r)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	epsG := eps / float64(bound) / float64(len(q.Aggs))
	if bound < 1 {
		epsG = eps / float64(len(keys)) / float64(len(q.Aggs))
	}
	var out []ResultRow
	for _, k := range keys {
		g := groups[k]
		vals := make([]float64, len(q.Aggs))
		for i, spec := range q.Aggs {
			users := map[string]*userAgg{}
			var ids []string
			for _, r := range g.rows {
				uid := r[t.userIx].String()
				u := users[uid]
				if u == nil {
					u = &userAgg{}
					users[uid] = u
					ids = append(ids, uid)
				}
				if spec.Col != "" {
					ix, _ := t.ColumnIndex(spec.Col)
					u.sum += r[ix].F
				}
				u.count++
			}
			sort.Strings(ids)
			collapsed := make([]userAgg, len(ids))
			for j, id := range ids {
				collapsed[j] = *users[id]
			}
			v, err := aggregate(rng, spec, collapsed, epsG)
			if err != nil {
				return nil, fmt.Errorf("group %q: %w", k, err)
			}
			vals[i] = v
		}
		out = append(out, ResultRow{Group: g.key, HasGroup: true, Value: vals[0], Values: vals})
	}
	return out, nil
}

// sameAggs compares collapses bit for bit (NaN sums included).
func sameAggs(a, b []userAgg) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d users vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i].sum) != math.Float64bits(b[i].sum) || a[i].count != b[i].count {
			return fmt.Errorf("user %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// checkCollapseTwin draws random selections from tab's snapshots and
// asserts the rank-fold collapse equals the sequential twin on every
// column, and that it leaves its shared accumulator zeroed.
func checkCollapseTwin(t *testing.T, tab *Table, rng *xrand.RNG) {
	t.Helper()
	snaps := tab.shardSnapshots()
	ord := tab.userOrder(snaps)
	acc := make([]userAgg, len(ord.ids))
	for trial := 0; trial < 20; trial++ {
		var parts []selPart
		for s, sn := range snaps {
			var idx []int32
			for i := 0; i < sn.n; i++ {
				if trial == 0 || rng.Uint64()%3 != 0 {
					idx = append(idx, int32(i))
				}
			}
			if len(idx) > 0 {
				parts = append(parts, selPart{shard: s, idx: idx})
			}
		}
		for _, colIx := range []int{-1, 1, 2} {
			got := tab.collapseSelection(ord, snaps, parts, colIx, acc)
			if err := sameAggs(got, refCollapseSelectionSeq(tab, snaps, parts, colIx)); err != nil {
				t.Fatalf("shards=%d trial %d col %d: %v", tab.NumShards(), trial, colIx, err)
			}
			for r, a := range acc {
				if a != (userAgg{}) {
					t.Fatalf("shards=%d: accumulator slot %d left dirty: %+v", tab.NumShards(), r, a)
				}
			}
		}
	}
}

// signedValue draws a float that is sometimes -0, +0, NaN or ±Inf — the
// values where fold shape and starting point show in the bits.
func signedValue(rng *xrand.RNG) float64 {
	switch rng.Uint64() % 8 {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(int(rng.Uint64()%2)*2 - 1)
	default:
		return rng.Gaussian() * 1e3
	}
}

// TestCollapseRankFoldMatchesSeqTwin: the rank-indexed collapse must
// equal the sequential map fold bit for bit on random tables at 1, 4 and
// 16 shards, with ±0, NaN and ±Inf values in the folded columns.
func TestCollapseRankFoldMatchesSeqTwin(t *testing.T) {
	cols := []Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "n", Kind: KindInt}}
	for _, shards := range []int{1, 4, 16} {
		rng := xrand.New(uint64(shards))
		db := NewDB()
		tab, err := db.CreateSharded("r", cols, "uid", shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			uid := fmt.Sprintf("u%d", rng.Uint64()%90)
			if err := tab.Insert(Str(uid), Float(signedValue(rng)), Int(int64(rng.Uint64()%9)-4)); err != nil {
				t.Fatal(err)
			}
		}
		checkCollapseTwin(t, tab, rng)
	}
}

// TestUserCollapseLargeShardTwin: one shard holding 20k rows of 5,000
// users — the size of a durable tenant's table under load — folded under
// a real goroutine fan-out must give the row-order reference's collapse
// bit for bit, with ±0, NaN and ±Inf among the float values.
func TestUserCollapseLargeShardTwin(t *testing.T) {
	rng := xrand.New(20480)
	db := NewDB()
	db.SetFanout(goFanout)
	tab, err := db.CreateSharded("big",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "n", Kind: KindInt}}, "uid", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 20480)
	for i := range rows {
		rows[i] = []Value{Str(fmt.Sprintf("u%04d", rng.Uint64()%5000)), Float(signedValue(rng)), Int(int64(rng.Uint64()%1000) - 500)}
	}
	if err := tab.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	means, err := tab.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	want := refUserMeans(rows, 1)
	if len(means) != len(want) {
		t.Fatalf("UserMeans: %d users, want %d", len(means), len(want))
	}
	for i := range want {
		if math.Float64bits(means[i]) != math.Float64bits(want[i]) {
			t.Fatalf("UserMeans user %d: %v, want %v", i, means[i], want[i])
		}
	}
	sums, err := tab.UserIntSums("n")
	if err != nil {
		t.Fatal(err)
	}
	if want := refUserIntSums(rows, 2); fmt.Sprint(sums) != fmt.Sprint(want) {
		t.Fatal("UserIntSums diverged from the row-order reference")
	}
}

// TestCollapseRankFoldStraddlingState: a state written by an earlier
// version may record a placement that puts one user's rows on several
// shards. Import ignores it, and so does a later AppendRows, whose
// newcomers extend the cached order: every row sits in its hash shard,
// the rank-fold collapse equals the sequential twin, and NumUsers counts
// each user once.
func TestCollapseRankFoldStraddlingState(t *testing.T) {
	rng := xrand.New(5)
	type legacyState struct {
		TableState
		ShardOf []int `json:"shard_of"`
	}
	legacy := legacyState{TableState: TableState{
		Name:    "s",
		Columns: []Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "n", Kind: KindInt}},
		UserCol: "uid",
		Shards:  4,
	}}
	var rows [][]Value
	for i := 0; i < 400; i++ {
		rows = append(rows, []Value{Str(fmt.Sprintf("u%02d", rng.Uint64()%40)), Float(signedValue(rng)), Int(int64(i % 5))})
		legacy.ShardOf = append(legacy.ShardOf, int(rng.Uint64()%4))
	}
	legacy.ShardOf = legacy.ShardOf[:200]
	enc, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	var head TableState
	if err := json.Unmarshal(enc, &head); err != nil {
		t.Fatal(err)
	}
	head.Rows = rows[:200] // NaN has no JSON form: the rows join after decoding
	db := NewDB()
	tab, err := db.Import(head)
	if err != nil {
		t.Fatal(err)
	}
	checkHashPlacement(t, tab)
	checkCollapseTwin(t, tab, rng)
	if err := tab.AppendRows(rows[200:]); err != nil {
		t.Fatal(err)
	}
	checkHashPlacement(t, tab)
	checkCollapseTwin(t, tab, rng)
	if got := tab.NumUsers(); got != 40 {
		t.Fatalf("NumUsers = %d, want 40", got)
	}
	sums, err := tab.UserIntSums("n")
	if err != nil {
		t.Fatal(err)
	}
	if want := refUserIntSums(rows, 2); fmt.Sprint(sums) != fmt.Sprint(want) {
		t.Fatalf("UserIntSums = %v, want %v", sums, want)
	}
}

// dictFixture builds twins of a table whose string columns exercise the
// dictionary: empty strings, non-ASCII values and user ids, and a group
// column with keys the WHERE literals hit exactly.
func dictFixture(t *testing.T, shards int) (*DB, *Table, [][]Value) {
	t.Helper()
	db := NewDB()
	tab, err := db.CreateSharded("d",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "s", Kind: KindString}},
		"uid", shards)
	if err != nil {
		t.Fatal(err)
	}
	uids := []string{"", "ä", "zoë", "日本", "u1", "u2", "u3", "U4", "u5", "u6", "Ωmega", "u8"}
	strs := []string{"", "é", "e", "日本語", "b", "É", "a b"}
	rng := xrand.New(3)
	var rows [][]Value
	for i := 0; i < 300; i++ {
		row := []Value{Str(uids[rng.Uint64()%uint64(len(uids))]), Float(rng.Gaussian()), Str(strs[rng.Uint64()%uint64(len(strs))])}
		if err := tab.Insert(row...); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return db, tab, rows
}

// TestStringDictionaryEvalTwin: string predicates evaluated once per
// dictionary entry must agree with the row-at-a-time Eval on every row —
// empty strings, non-ASCII, literals equal to a dictionary entry or to
// none, and predicates on the user column itself — and GROUP BY on a
// dictionary-coded column (the user column included) must release what
// the row-at-a-time reference releases, bit for bit.
func TestStringDictionaryEvalTwin(t *testing.T) {
	var preds []Expr
	for _, col := range []string{"s", "uid"} {
		for _, lit := range []string{"", "é", "日本", "日本語", "zoë", "u5", "zzz"} {
			for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
				preds = append(preds, &CmpExpr{Col: col, Op: op, Lit: Str(lit)})
			}
		}
	}
	preds = append(preds,
		&BinExpr{Op: "and", Left: &CmpExpr{Col: "s", Op: "!=", Lit: Str("")}, Right: &CmpExpr{Col: "uid", Op: ">=", Lit: Str("u")}},
		&NotExpr{Inner: &CmpExpr{Col: "uid", Op: "=", Lit: Str("")}})
	for _, shards := range []int{1, 4, 16} {
		db, tab, rows := dictFixture(t, shards)
		for _, e := range preds {
			if err := e.validate(tab); err != nil {
				t.Fatal(err)
			}
			got := make([]bool, len(rows))
			for _, sn := range tab.shardSnapshots() {
				sel := make([]bool, sn.n)
				e.evalShard(tab, sn, sel)
				for i := 0; i < sn.n; i++ {
					got[sn.seqs[i]] = sel[i]
				}
			}
			for i, r := range rows {
				want, err := e.Eval(tab, r)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("shards=%d %#v row %d %v: got %v, want %v", shards, e, i, r, got[i], want)
				}
			}
		}

		for _, sql := range []string{
			"SELECT COUNT(*) FROM d GROUP BY s",
			"SELECT COUNT(*) FROM d GROUP BY uid",
			"SELECT COUNT(*), SUM(v) FROM d GROUP BY uid", // 1-user groups: ErrTooFewUsers
			"SELECT AVG(v) FROM d WHERE s != '' GROUP BY s",
			"SELECT COUNT(*) FROM d WHERE uid < 'u5' GROUP BY uid",
		} {
			for _, bound := range []int{0, 2, -1} {
				q, err := Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				res, err := db.ExecTraced(xrand.New(17), sql, 4, ExecOpts{GroupBound: bound})
				b := bound
				if b == 0 {
					b = 1
				}
				want, werr := refGroupedExec(xrand.New(17), tab, rows, q, 4, b)
				if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
					t.Fatalf("shards=%d %s bound=%d: error %v, want %v", shards, sql, bound, err, werr)
				}
				if err != nil {
					continue
				}
				if err := sameGroupedResult(res, &Result{Rows: want}); err != nil {
					t.Fatalf("shards=%d %s bound=%d: %v", shards, sql, bound, err)
				}
			}
		}
	}
}
