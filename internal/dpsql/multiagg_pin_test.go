package dpsql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// multiAggFixture fills a table of 1200 users in four groups: user u has
// 1 + u%4 rows, row r in group g((u*7+r)%4), so under bound 2 a user
// with several rows contributes to two groups.
func multiAggFixture(t *testing.T, shards int) *DB {
	t.Helper()
	db := NewDB()
	tab, err := db.CreateSharded("m",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "grp", Kind: KindString}},
		"uid", shards)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(2601)
	for u := 0; u < 1200; u++ {
		for r := 0; r <= u%4; r++ {
			g := (u*7 + r) % 4
			v := 50 + 10*float64(g) + 8*src.Gaussian()
			if err := tab.Insert(Str(fmt.Sprintf("u%03d", u)), Float(v), Str(fmt.Sprintf("g%d", g))); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.SetFanout(goFanout)
	return db
}

// multiAggPin holds the released values of
// SELECT SUM(v), AVG(v), MEDIAN(v), COUNT(*) FROM m GROUP BY grp on
// multiAggFixture at ε 8, seed 26, as float64 bits per group row, keyed by
// contribution bound. They were recorded before SUM and AVG of one column
// read separate per-user slices and MEDIAN shared AVG's, and sharded and
// single-shard tables must release them alike.
var multiAggPin = map[int][]string{
	1: {
		"g0 0x40cd96034f78ced5 0x40491aa439346b8e 0x404945f92c5f92c6 0x4072b51966c6f8e2",
		"g1 0x40d17fbb114e22e4 0x404dcc3768d5b18d 0x404e369d0369d037 0x4072c06cc34f0a1e",
		"g2 0x40d4b0bce5ac30a7 0x40516c8b4efb63f0 0x4051cf7777777778 0x4072c07d90d61d32",
		"g3 0x40d75d6ab4cc61d3 0x4053ec5b3c2cd72b 0x40543eb851eb851f 0x4072ba31f91ad4af",
	},
	2: {
		"g0 0x40dd4ca47254bb7e 0x40485d241f7f3d56 0x4048ad3a06d3a06e 0x4082bf0bbf3569e5",
		"g1 0x40cbcae4e3a4cdc6 0x404c80cbd4614587 0x40509c28f5c28f5c 0x407297d0db8bb47b",
		"g2 0x40e4fb1a6c16b327 0x4051a6ccc27b2370 0x405169999999999a 0x4082b97424235d31",
		"g3 0x40e79fbc2a1f21c9 0x4053bfac6af010c6 0x4053abf258bf258c 0x4082bfa21bcf29c1",
	},
}

// TestMultiAggregatePin: a SELECT list mixing the sum form (SUM), the
// mean form shared by two aggregates (AVG, MEDIAN) and the user count
// (COUNT) of one column releases the pinned values bit for bit, at 1 and
// 16 shards and bounds 1 and 2.
func TestMultiAggregatePin(t *testing.T) {
	const sql = "SELECT SUM(v), AVG(v), MEDIAN(v), COUNT(*) FROM m GROUP BY grp"
	for _, shards := range []int{1, 16} {
		db := multiAggFixture(t, shards)
		for _, bound := range []int{1, 2} {
			res, err := db.ExecTraced(xrand.New(26), sql, 8, ExecOpts{GroupBound: bound})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range res.Rows {
				bits := make([]string, len(r.Values))
				for i, v := range r.Values {
					bits[i] = fmt.Sprintf("%#x", math.Float64bits(v))
				}
				got = append(got, r.Group.String()+" "+strings.Join(bits, " "))
			}
			want := multiAggPin[bound]
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("shards=%d bound=%d: released\n%q\nwant\n%q", shards, bound, got, want)
			}
		}
	}
}
