package dpsql

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dp"
	"repro/internal/xrand"
)

// buildClampFix creates a table where every user contributes rows to
// three groups in a known per-user first-seen order: user i's rows
// arrive in group order (i%3, i+1%3, i+2%3), so the admitted group set
// at any contribution bound is exactly predictable. 12 users, groups
// a/b/c with 4 users first-seen in each.
func buildClampFix(t *testing.T, shards int) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	db.SetDefaultShards(shards)
	tab, err := db.Create("events",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "grp", Kind: KindString}},
		"uid")
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"a", "b", "c"}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 12; i++ {
			uid := fmt.Sprintf("u%02d", i)
			if err := tab.Insert(Str(uid), Float(float64(10*i+pass)), Str(groups[(i+pass)%3])); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, tab
}

// groupCounts runs COUNT(*) GROUP BY grp at a huge ε (noise ~1e-6) and
// rounds, so the released counts equal the exact post-clamp user counts.
func groupCounts(t *testing.T, db *DB, bound int) map[string]int {
	t.Helper()
	res, err := db.ExecTraced(xrand.New(11), "SELECT COUNT(*) FROM events GROUP BY grp", 1e6, ExecOpts{GroupBound: bound})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, r := range res.Rows {
		out[r.Group.String()] = int(math.Round(r.Value))
	}
	return out
}

// TestGroupedContributionClamp: the per-user group-membership cap admits
// each user to its first `bound` distinct groups in its own row order
// and drops the rest. Counts are checked exactly
// (huge ε), on single-shard and sharded twins.
func TestGroupedContributionClamp(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db, _ := buildClampFix(t, shards)
		// Bound 1: each user lands only in its first-seen group -> 4 users
		// per group. Default (0) must behave identically.
		for _, b := range []int{0, 1} {
			got := groupCounts(t, db, b)
			want := map[string]int{"a": 4, "b": 4, "c": 4}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d bound=%d: counts %v, want %v", shards, b, got, want)
			}
		}
		// Bound 2: first two groups admitted -> 8 users per group.
		if got, want := groupCounts(t, db, 2), map[string]int{"a": 8, "b": 8, "c": 8}; !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d bound=2: counts %v, want %v", shards, got, want)
		}
		// Bound 3 admits every group a user has -> all 12 users everywhere.
		if got, want := groupCounts(t, db, 3), map[string]int{"a": 12, "b": 12, "c": 12}; !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d bound=3: counts %v, want %v", shards, got, want)
		}
	}
}

// TestGroupedParallelPricing: one grouped release over k groups charges
// exactly ONE release's cost — on the pure, zCDP, and RDP backends (the
// RDP per-order vector checked componentwise) — regardless of k, and
// a bound > 1 still charges the requested total.
func TestGroupedParallelPricing(t *testing.T) {
	const eps = 0.5
	const q = "SELECT AVG(v) FROM events GROUP BY grp" // k=3 groups

	run := func(led dp.Ledger, bound int) *Result {
		t.Helper()
		db, _ := buildTwin(t, 4)
		db.SetLedger(led)
		res, err := db.ExecTraced(xrand.New(3), q, eps, ExecOpts{GroupBound: bound})
		if err != nil {
			t.Fatal(err)
		}
		if res.EpsSpent != eps {
			t.Fatalf("EpsSpent = %v, want %v", res.EpsSpent, eps)
		}
		return res
	}

	// Pure ε: spend is exactly eps, not 3·eps and not eps/3-per-group sums.
	bl, err := dp.NewBasicLedger(10)
	if err != nil {
		t.Fatal(err)
	}
	run(bl, 0)
	if got := bl.Spent(); got != eps {
		t.Fatalf("pure spend = %v, want %v", got, eps)
	}

	// zCDP: the one deduction converts to ε²/2.
	zl, err := dp.NewZCDPLedger(4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	run(zl, 0)
	if got, want := zl.Spent(), dp.PureToZCDP(eps); math.Abs(got-want) > 1e-15 {
		t.Fatalf("zcdp spend = %v, want %v", got, want)
	}

	// RDP: the per-order spent vector equals one pure-ε release's curve.
	rl, err := dp.NewRDPLedger(2, 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	run(rl, 0)
	orders := rl.Orders()
	for i, s := range rl.SpentByOrder() {
		if want := dp.PureRDP(orders[i], eps); math.Abs(s-want) > 1e-12 {
			t.Fatalf("rdp spend at alpha=%v: %v, want %v", orders[i], s, want)
		}
	}

	// Bound 2 (sequential fallback) still charges the requested total —
	// the bound moves per-group accuracy, never the bill.
	bl2, err := dp.NewBasicLedger(10)
	if err != nil {
		t.Fatal(err)
	}
	run(bl2, 2)
	if got := bl2.Spent(); got != eps {
		t.Fatalf("bound=2: pure spend = %v, want %v", got, eps)
	}
}

// TestGroupedWindowedRefill: a grouped release drains a windowed budget,
// a second inside the same window overdraws, and the next window refills
// it — the decorator composes with parallel-priced grouped spends.
func TestGroupedWindowedRefill(t *testing.T) {
	db, _ := buildTwin(t, 4)
	inner, err := dp.NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := dp.NewWindowedLedger(inner, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	wl.SetNow(func() time.Time { return now })
	db.SetLedger(wl)

	const q = "SELECT AVG(v) FROM events GROUP BY grp"
	if _, err := db.Exec(xrand.New(5), q, 1); err != nil {
		t.Fatalf("first grouped release: %v", err)
	}
	if _, err := db.Exec(xrand.New(5), q, 1); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("same-window overdraw: got %v, want ErrBudgetExhausted", err)
	}
	now = now.Add(2 * time.Hour)
	if _, err := db.Exec(xrand.New(5), q, 1); err != nil {
		t.Fatalf("grouped release after window roll: %v", err)
	}
}

// TestGroupedOverdraw: a grouped release that exceeds the budget fails
// with errors.Is(…, dp.ErrBudgetExhausted) and burns nothing, and the
// budget remains usable for a smaller grouped release.
func TestGroupedOverdraw(t *testing.T) {
	db, _ := buildTwin(t, 4)
	led, err := dp.NewBasicLedger(0.4)
	if err != nil {
		t.Fatal(err)
	}
	db.SetLedger(led)
	const q = "SELECT AVG(v) FROM events GROUP BY grp"
	if _, err := db.Exec(xrand.New(5), q, 0.5); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("overdraw: got %v, want ErrBudgetExhausted", err)
	}
	if got := led.Spent(); got != 0 {
		t.Fatalf("failed release burned budget: spent %v", got)
	}
	if _, err := db.Exec(xrand.New(5), q, 0.3); err != nil {
		t.Fatalf("affordable grouped release after refusal: %v", err)
	}
}

// TestGroupedBadBound: negative bounds, -1 included, are rejected before
// any spend.
func TestGroupedBadBound(t *testing.T) {
	db, _ := buildTwin(t, 1)
	led, err := dp.NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	db.SetLedger(led)
	for _, b := range []int{-1, -2} {
		_, err = db.ExecTraced(xrand.New(1), "SELECT COUNT(*) FROM events GROUP BY grp", 0.5, ExecOpts{GroupBound: b})
		if !errors.Is(err, ErrBadGroupBound) {
			t.Fatalf("bound=%d: got %v, want ErrBadGroupBound", b, err)
		}
		if led.Spent() != 0 {
			t.Fatalf("bound=%d burned budget: spent %v", b, led.Spent())
		}
	}
}

// TestImportIgnoresRecordedPlacement: states written by earlier versions
// may carry a "shard_of" array, and a hand-built one could split a user
// across shards. Import ignores it: every row lands in its hash shard, so
// the bound-1 clamp sees each user whole and the grouped counts equal the
// single-shard twin's. The re-exported state records no placement.
func TestImportIgnoresRecordedPlacement(t *testing.T) {
	// Four users, two rows each in different groups; shard_of splits every
	// user across both shards.
	const legacy = `{"name":"events","user_col":"uid","shards":2,
		"columns":[{"name":"uid","kind":2},{"name":"v","kind":0},{"name":"grp","kind":2}],
		"rows":[
			[{"k":2,"s":"u0"},{},{"k":2,"s":"a"}],[{"k":2,"s":"u0"},{"f":1},{"k":2,"s":"b"}],
			[{"k":2,"s":"u1"},{"f":1},{"k":2,"s":"a"}],[{"k":2,"s":"u1"},{"f":2},{"k":2,"s":"b"}],
			[{"k":2,"s":"u2"},{"f":2},{"k":2,"s":"a"}],[{"k":2,"s":"u2"},{"f":3},{"k":2,"s":"b"}],
			[{"k":2,"s":"u3"},{"f":3},{"k":2,"s":"a"}],[{"k":2,"s":"u3"},{"f":4},{"k":2,"s":"b"}]],
		"shard_of":[0,1,0,1,0,1,0,1]}`
	var st TableState
	if err := json.Unmarshal([]byte(legacy), &st); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	db2.SetDefaultShards(2)
	tab2, err := db2.Import(st)
	if err != nil {
		t.Fatal(err)
	}
	checkHashPlacement(t, tab2)
	db1 := NewDB()
	db1.SetDefaultShards(1)
	if _, err := db1.Import(st); err != nil {
		t.Fatal(err)
	}

	// Bound 1: every user's first-seen group is "a", so "b" must release
	// an (exact, huge-ε) count of 0 admitted users — or not at all.
	for _, db := range []*DB{db1, db2} {
		got := map[string]int{}
		res, err := db.ExecTraced(xrand.New(9), "SELECT COUNT(*) FROM events GROUP BY grp", 1e6, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			got[r.Group.String()] = int(math.Round(r.Value))
		}
		if want := map[string]int{"a": 4}; !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: counts %v, want %v", db.DefaultShards(), got, want)
		}
	}

	out, err := json.Marshal(tab2.Export())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "shard_of") {
		t.Fatalf("export records placement: %s", out)
	}
	if !reflect.DeepEqual(tab2.Export().Rows, st.Rows) {
		t.Fatal("re-exported rows differ from the imported ones")
	}
}
