package dpsql

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/empirical"
	"repro/internal/xrand"
)

// refGroup is one group of the reference fold: its key, its user count,
// and per folded column the users' accumulators in id order.
type refGroup struct {
	keyS  string
	users int
	aggs  [][]userAgg
}

// refFoldSeq is the sequential reference for scanShards + mergeGroups:
// rows one at a time in shard and row order, the WHERE predicate by Eval,
// keys by Value.String, each user clamped to its first bound groups,
// per-(group, user) folds by map — the exact fold the row store ran —
// then groups and users sorted by key and id.
func refFoldSeq(t testing.TB, tab *Table, snaps []shardSnap, where Expr, groupIx, bound int, cols []int) []refGroup {
	t.Helper()
	folds := map[string]map[string][]userAgg{} // key -> user id -> per-column fold
	admitted := map[string][]string{}
	for _, sn := range snaps {
		for i := 0; i < sn.n; i++ {
			row := sn.row(tab, i)
			if where != nil {
				ok, err := where.Eval(tab, row)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
			}
			uid, key := row[tab.userIx].String(), ""
			if groupIx >= 0 {
				key = row[groupIx].String()
			}
			if !slices.Contains(admitted[uid], key) {
				if len(admitted[uid]) >= bound {
					continue
				}
				admitted[uid] = append(admitted[uid], key)
			}
			g := folds[key]
			if g == nil {
				g = map[string][]userAgg{}
				folds[key] = g
			}
			u := g[uid]
			if u == nil {
				u = make([]userAgg, len(cols))
				g[uid] = u
			}
			for c, ix := range cols {
				if x := row[ix].F; math.IsNaN(x) { // a NaN row replaces the sum
					u[c].sum = x
				} else {
					u[c].sum += x
				}
				u[c].count++
			}
		}
	}
	var out []refGroup
	for _, key := range slices.Sorted(maps.Keys(folds)) {
		g := folds[key]
		rg := refGroup{keyS: key, users: len(g), aggs: make([][]userAgg, len(cols))}
		for _, uid := range slices.Sorted(maps.Keys(g)) {
			for c := range cols {
				rg.aggs[c] = append(rg.aggs[c], g[uid][c])
			}
		}
		out = append(out, rg)
	}
	return out
}

// refGroupedExec is the row-at-a-time reference for a GROUP BY release on
// a hash-routed table: rows in insertion order, the WHERE predicate by
// Eval, keys by Value.String, each user clamped to its first bound
// groups, per-user folds by map, groups and users
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
			xs := make([]float64, len(ids))
			for j, id := range ids {
				if u := users[id]; spec.Kind == AggSum {
					xs[j] = u.sum
				} else {
					xs[j] = u.sum / float64(u.count)
				}
			}
			v, err := aggregate(rng, spec, len(xs), xs, empirical.Sorted(xs), epsG)
			if err != nil {
				return nil, fmt.Errorf("group %q: %w", k, err)
			}
			vals[i] = v
		}
		out = append(out, ResultRow{Group: g.key, HasGroup: true, Value: vals[0], Values: vals})
	}
	return out, nil
}

// sameInput compares a merged input with the reference folds read in
// the input's form, bit for bit (NaN values included).
func sameInput(xs []float64, folds []userAgg, mean bool) error {
	if len(xs) != len(folds) {
		return fmt.Errorf("%d users vs %d", len(xs), len(folds))
	}
	for i, u := range folds {
		want := u.sum
		if mean {
			want /= float64(u.count)
		}
		if math.Float64bits(xs[i]) != math.Float64bits(want) {
			return fmt.Errorf("user %d: %v (%#x) vs %v (%#x) from %+v", i, xs[i], math.Float64bits(xs[i]), want, math.Float64bits(want), u)
		}
	}
	return nil
}

// checkFoldTwin asserts that the shard scan and group merge over snaps
// give the sequential reference's groups, user counts and per-user
// values bit for bit — once with only the user counts (a COUNT release)
// and once folding the float column v and the int column n, each read in
// both forms, per-user sums and per-user means.
func checkFoldTwin(t *testing.T, tab *Table, snaps []shardSnap, where Expr, groupIx, bound int) {
	t.Helper()
	for _, cols := range [][]int{nil, {1, 2}} {
		var ins []foldInput
		for c := range cols {
			ins = append(ins, foldInput{col: c}, foldInput{col: c, mean: true})
		}
		got := tab.mergeGroups(snaps, tab.scanShards(snaps, where, groupIx, bound, cols, nil), bound, len(cols), ins)
		want := refFoldSeq(t, tab, snaps, where, groupIx, bound, cols)
		if len(got) != len(want) {
			t.Fatalf("shards=%d group col %d bound %d cols %v: %d groups, want %d", tab.NumShards(), groupIx, bound, cols, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.keyS != w.keyS || g.users != w.users {
				t.Fatalf("shards=%d group col %d bound %d: group %d is %q with %d users, want %q with %d", tab.NumShards(), groupIx, bound, i, g.keyS, g.users, w.keyS, w.users)
			}
			for i, in := range ins {
				if err := sameInput(g.xs[i], w.aggs[in.col], in.mean); err != nil {
					t.Fatalf("shards=%d group col %d bound %d group %q col %d mean %v: %v", tab.NumShards(), groupIx, bound, g.keyS, cols[in.col], in.mean, err)
				}
			}
		}
	}
}

// checkCollapseTwin runs checkFoldTwin on tab's current snapshots over
// random WHERE selections, ungrouped and grouped by the string column g
// (3), the int column n (2) and the float column v (1, whose keys
// include NaN and ±0), at bounds 1–3. Columns 1–3 of tab must be v
// (float), n (int) and g (string).
func checkCollapseTwin(t *testing.T, tab *Table, rng *xrand.RNG) {
	t.Helper()
	snaps := tab.shardSnapshots()
	for trial := 0; trial < 12; trial++ {
		var where Expr
		if trial > 0 {
			where = randomWhere(rng, 2)
			if err := where.validate(tab); err != nil {
				t.Fatal(err)
			}
		}
		groupIx, bound := []int{-1, 3, 2, 1}[trial%4], 1+trial%3
		if groupIx < 0 {
			bound = 1 // Exec runs every ungrouped query at bound 1
		}
		checkFoldTwin(t, tab, snaps, where, groupIx, bound)
	}
}

// randomWhere draws a WHERE predicate over v, n and g, nested up to
// depth levels of AND, OR and NOT.
func randomWhere(rng *xrand.RNG, depth int) Expr {
	if depth > 0 && rng.Uint64()%2 == 0 {
		switch rng.Uint64() % 3 {
		case 0:
			return &NotExpr{Inner: randomWhere(rng, depth-1)}
		case 1:
			return &BinExpr{Op: "and", Left: randomWhere(rng, depth-1), Right: randomWhere(rng, depth-1)}
		default:
			return &BinExpr{Op: "or", Left: randomWhere(rng, depth-1), Right: randomWhere(rng, depth-1)}
		}
	}
	op := []string{"=", "!=", "<", "<=", ">", ">="}[rng.Uint64()%6]
	switch rng.Uint64() % 3 {
	case 0:
		return &CmpExpr{Col: "v", Op: op, Lit: Float(rng.Gaussian() * 1e3)}
	case 1:
		return &CmpExpr{Col: "n", Op: op, Lit: Int(int64(rng.Uint64()%9) - 4)}
	default:
		return &CmpExpr{Col: "g", Op: op, Lit: Str(fmt.Sprintf("g%d", rng.Uint64()%4))}
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

// foldCols is the schema the fold twins run on: checkCollapseTwin reads
// v, n and g at columns 1–3.
var foldCols = []Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "n", Kind: KindInt}, {Name: "g", Kind: KindString}}

// foldRow draws a row of foldCols for user uid.
func foldRow(rng *xrand.RNG, uid string) []Value {
	return []Value{Str(uid), Float(signedValue(rng)), Int(int64(rng.Uint64()%9) - 4), Str(fmt.Sprintf("g%d", rng.Uint64()%4))}
}

// TestCollapseRankFoldMatchesSeqTwin: the scan's per-user fold, placed
// in user-id order, must equal the sequential map fold bit for bit on
// random tables at 1, 4 and 16 shards, under random WHERE selections at
// bounds 1–3, with ±0, NaN and ±Inf values in the folded columns.
func TestCollapseRankFoldMatchesSeqTwin(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		rng := xrand.New(uint64(shards))
		db := NewDB()
		tab, err := db.CreateSharded("r", foldCols, "uid", shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			if err := tab.Insert(foldRow(rng, fmt.Sprintf("u%d", rng.Uint64()%90))...); err != nil {
				t.Fatal(err)
			}
		}
		checkCollapseTwin(t, tab, rng)
	}
}

// TestUserCollapseLargeShardTwin: one shard holding 20k rows of 5,000
// users — the size of a durable tenant's table under load — folded under
// a real goroutine fan-out must give the row-order reference's collapse
// bit for bit, with ±0, NaN and ±Inf among the float values: the
// estimate readers, and the release scan's fold under random WHERE
// selections at bounds 1–3.
func TestUserCollapseLargeShardTwin(t *testing.T) {
	rng := xrand.New(20480)
	db := NewDB()
	db.SetFanout(goFanout)
	tab, err := db.CreateSharded("big", foldCols, "uid", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 20480)
	for i := range rows {
		rows[i] = foldRow(rng, fmt.Sprintf("u%04d", rng.Uint64()%5000))
		rows[i][2] = Int(int64(rng.Uint64()%1000) - 500)
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
	checkCollapseTwin(t, tab, rng)
}

// TestCollapseRankFoldStraddlingState: a state written by an earlier
// version may record a placement that puts one user's rows on several
// shards. Import ignores it, and so does a later AppendRows, whose
// newcomers extend the cached order: every row sits in its hash shard,
// the scan's fold equals the sequential twin, and NumUsers counts each
// user once.
func TestCollapseRankFoldStraddlingState(t *testing.T) {
	rng := xrand.New(5)
	type legacyState struct {
		TableState
		ShardOf []int `json:"shard_of"`
	}
	legacy := legacyState{TableState: TableState{
		Name:    "s",
		Columns: foldCols,
		UserCol: "uid",
		Shards:  4,
	}}
	var rows [][]Value
	for i := 0; i < 400; i++ {
		rows = append(rows, foldRow(rng, fmt.Sprintf("u%02d", rng.Uint64()%40)))
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

// checkWho asserts that ord.who inverts the rank order over snaps: ids
// ascend, and every dictionary user (s, u) of every snapshot sits at the
// rank of its id, whose who entry names (s, u) back — each exactly once.
func checkWho(t *testing.T, ord *userOrder, snaps []shardSnap) {
	t.Helper()
	if !slices.IsSorted(ord.ids) || len(ord.who) != len(ord.ids) {
		t.Fatalf("order: %d ids (sorted %v), %d who entries", len(ord.ids), slices.IsSorted(ord.ids), len(ord.who))
	}
	users := 0
	for s, sn := range snaps {
		users += sn.nu
		for u := 0; u < sn.nu; u++ {
			r, ok := slices.BinarySearch(ord.ids, sn.uids[u])
			if !ok || ord.who[r] != (userRef{int32(s), int32(u)}) {
				t.Fatalf("user %q (shard %d entry %d): rank %d (found %v) maps back to %+v", sn.uids[u], s, u, r, ok, ord.who[r])
			}
		}
	}
	if users != len(ord.ids) {
		t.Fatalf("order ranks %d users, the snapshots hold %d", len(ord.ids), users)
	}
}

// TestUserOrderWhoInvertsRank: after every extension of the cached order
// — newcomers landing between, before and after old ids, on 1, 4 and 16
// shards — who inverts the rank order, and the placement walks read an
// older snapshot under the newer order correctly: users past that
// snapshot's dictionary (u >= nu) are skipped, by the release fold and
// by the estimate readers' merge alike.
func TestUserOrderWhoInvertsRank(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		rng := xrand.New(uint64(100 + shards))
		db := NewDB()
		tab, err := db.CreateSharded("w", foldCols, "uid", shards)
		if err != nil {
			t.Fatal(err)
		}
		var old []shardSnap
		for batch := 0; batch < 5; batch++ {
			for i := 0; i < 120; i++ {
				uid := fmt.Sprintf("u%03d", rng.Uint64()%uint64(40+30*batch))
				if err := tab.Insert(foldRow(rng, uid)...); err != nil {
					t.Fatal(err)
				}
			}
			snaps := tab.shardSnapshots()
			ord := tab.userOrder(snaps)
			checkWho(t, ord, snaps)
			if old == nil {
				old = snaps
				continue
			}
			// The order now outruns old: it ranks users old never saw.
			for _, bound := range []int{1, 2} {
				checkFoldTwin(t, tab, old, nil, 3, bound)
			}
			parts := make([][]userAgg, len(old))
			for s, sn := range old {
				parts[s] = tab.shardUserAggs(sn, 1)
			}
			want := refFoldSeq(t, tab, old, nil, -1, 1, []int{1})[0].aggs[0]
			if err := sameInput(mergeUsers(ord, parts, func(a userAgg) float64 { return a.sum / float64(a.count) }), want, true); err != nil {
				t.Fatalf("shards=%d batch %d: mergeUsers over an older snapshot: %v", shards, batch, err)
			}
		}
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
			for _, bound := range []int{0, 2} {
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
