package serve

import (
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dpsql"
	"repro/internal/xrand"
)

// The previous on-disk format recorded placement: rows records carried a
// "shard" tag (omitted for shard 0) and snapshot tables a per-row
// "shard_of" array. legacyAudit, legacySnapshot and legacyWAL are the
// bytes that format wrote for a 4-shard tenant: six users with one row
// each in the snapshot, one more row each in the WAL tail, a 0.5 release
// in the snapshot's ledger and a 0.25 release in a WAL batch record.
const legacyAudit = `c885daf5 {"seq":1,"ts_unix_nano":1792228657958430520,"release_id":"r-ff6fb8-1","path":"estimate","mechanism":"mean","cost":{"eps":0.5},"unit":"eps","native_cost":0.5}
`

const legacySnapshot = `{"seq":10,"config":{"epsilon":8,"accounting":"pure","shards":4},"ledger":{"kind":"basic","unit":"eps","total":8,"spent":0.5},"tables":[{"name":"events","columns":[{"name":"uid","kind":2},{"name":"v","kind":0},{"name":"g","kind":2}],"user_col":"uid","shards":4,"rows":[[{"k":2,"s":"u0"},{"f":10},{"k":2,"s":"a"}],[{"k":2,"s":"u1"},{"f":11},{"k":2,"s":"b"}],[{"k":2,"s":"u2"},{"f":12},{"k":2,"s":"a"}],[{"k":2,"s":"u3"},{"f":13},{"k":2,"s":"b"}],[{"k":2,"s":"u4"},{"f":14},{"k":2,"s":"a"}],[{"k":2,"s":"u5"},{"f":15},{"k":2,"s":"b"}]],"shard_of":[0,3,2,1,0,3]}]}
`

const legacyWAL = `104823ec {"seq":11,"type":"rows","rows":[[{"k":2,"s":"u0"},{"f":20},{"k":2,"s":"b"}]],"rows_table":"events"}
0518f2c0 {"seq":12,"type":"rows","rows":[[{"k":2,"s":"u1"},{"f":21},{"k":2,"s":"a"}]],"rows_table":"events","shard":3}
ad9cdc7e {"seq":13,"type":"rows","rows":[[{"k":2,"s":"u2"},{"f":22},{"k":2,"s":"b"}]],"rows_table":"events","shard":2}
fba00978 {"seq":14,"type":"rows","rows":[[{"k":2,"s":"u3"},{"f":23},{"k":2,"s":"a"}]],"rows_table":"events","shard":1}
40e29bee {"seq":15,"type":"rows","rows":[[{"k":2,"s":"u4"},{"f":24},{"k":2,"s":"b"}]],"rows_table":"events"}
ea09528b {"seq":16,"type":"rows","rows":[[{"k":2,"s":"u5"},{"f":25},{"k":2,"s":"a"}]],"rows_table":"events","shard":3}
f2a1b83f {"seq":17,"type":"batch","costs":[{"eps":0.25}]}
e601b100 {"seq":18,"type":"batch","audits":[{"seq":2,"ts_unix_nano":1792228665096390865,"release_id":"r-47d601-2","path":"estimate","mechanism":"mean","cost":{"eps":0.25},"unit":"eps","native_cost":0.25}]}
`

// legacyRows is the fixtures' table content in arrival order.
var legacyRows = [][]any{
	{"u0", 10.0, "a"}, {"u1", 11.0, "b"}, {"u2", 12.0, "a"}, {"u3", 13.0, "b"}, {"u4", 14.0, "a"}, {"u5", 15.0, "b"},
	{"u0", 20.0, "b"}, {"u1", 21.0, "a"}, {"u2", 22.0, "b"}, {"u3", 23.0, "a"}, {"u4", 24.0, "b"}, {"u5", 25.0, "a"},
}

// TestLegacyPlacementDirBoots: a 4-shard tenant directory in the previous
// on-disk format boots with its spend and every row, and answers exactly
// like a freshly hash-routed twin. The "service-written" fixture is the
// format's bytes verbatim, its recorded placement the hash route; in the
// "straddling" one, shard_of and a shard tag split users u0 and u3 across
// two shards each, as a hand-built state could. Recorded placement is
// ignored either way.
func TestLegacyPlacementDirBoots(t *testing.T) {
	straddling := strings.NewReplacer(
		`"shard_of":[0,3,2,1,0,3]`, `"shard_of":[1,3,2,1,0,3]`, // u0: shard 1 here, 0 in the WAL
	).Replace(legacySnapshot)
	straddlingWAL := strings.NewReplacer( // u3: shard 1 in the snapshot, 2 here
		`fba00978 {"seq":14,"type":"rows","rows":[[{"k":2,"s":"u3"},{"f":23},{"k":2,"s":"a"}]],"rows_table":"events","shard":1}`,
		`d08d5abb {"seq":14,"type":"rows","rows":[[{"k":2,"s":"u3"},{"f":23},{"k":2,"s":"a"}]],"rows_table":"events","shard":2}`,
	).Replace(legacyWAL)
	if straddling == legacySnapshot || straddlingWAL == legacyWAL {
		t.Fatal("straddling fixture edits did not apply")
	}
	for _, fx := range []struct{ name, snap, wal string }{
		{"service-written", legacySnapshot, legacyWAL},
		{"straddling", straddling, straddlingWAL},
	} {
		t.Run(fx.name, func(t *testing.T) {
			dir := t.TempDir()
			tdir := filepath.Join(dir, "legacy")
			if err := os.MkdirAll(tdir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, body := range map[string]string{"snapshot.json": fx.snap, "wal.log": fx.wal, "audit.log": legacyAudit} {
				if err := os.WriteFile(filepath.Join(tdir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			const seed = 21
			srv, c, stop := openDurable(t, dir, seed)
			defer stop()
			defer srv.Close()
			var status TenantStatus
			if code := c.do("GET", "/v1/tenants/legacy", nil, &status); code != http.StatusOK {
				t.Fatalf("recovered status: %d", code)
			}
			if status.Shards != 4 || math.Abs(status.Spent-0.75) > 1e-12 {
				t.Fatalf("recovered shards=%d spent=%v, want 4 and 0.75", status.Shards, status.Spent)
			}

			twin, tc, stopTwin := openDurable(t, t.TempDir(), seed)
			defer stopTwin()
			defer twin.Close()
			if code := tc.do("POST", "/v1/tenants", CreateTenantRequest{ID: "legacy", Epsilon: 8, Shards: 4}, nil); code != http.StatusCreated {
				t.Fatalf("twin tenant: %d", code)
			}
			if code := tc.do("POST", "/v1/tenants/legacy/tables", CreateTableRequest{
				Name:       "events",
				Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}, {Name: "g", Kind: "string"}},
				UserColumn: "uid",
			}, nil); code != http.StatusCreated {
				t.Fatalf("twin table: %d", code)
			}
			if code := tc.do("POST", "/v1/tenants/legacy/tables/events/rows", InsertRowsRequest{Rows: legacyRows}, nil); code != http.StatusOK {
				t.Fatalf("twin rows: %d", code)
			}

			tabs := make([]*dpsql.Table, 2)
			for i, s := range []*Server{srv, twin} {
				tn, _ := s.Tenant("legacy")
				tab, err := tn.Table("events")
				if err != nil {
					t.Fatal(err)
				}
				tabs[i] = tab
			}
			if got := tabs[0].Export(); !reflect.DeepEqual(got, tabs[1].Export()) {
				t.Fatalf("recovered table differs from the twin:\n%+v\n%+v", got, tabs[1].Export())
			}
			if n := tabs[0].NumUsers(); n != 6 || n != tabs[1].NumUsers() {
				t.Fatalf("NumUsers = %d (twin %d), want 6", n, tabs[1].NumUsers())
			}

			// Exact bound-1 counts: each user is clamped to its first group.
			db := dpsql.NewDB()
			db.SetDefaultShards(4)
			if _, err := db.Import(tabs[0].Export()); err != nil {
				t.Fatal(err)
			}
			res, err := db.Exec(xrand.New(1), "SELECT COUNT(*) FROM events GROUP BY g", 1e9)
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]float64{}
			for _, r := range res.Rows {
				counts[r.Group.String()] = math.Round(r.Value)
			}
			if want := map[string]float64{"a": 3, "b": 3}; !reflect.DeepEqual(counts, want) {
				t.Fatalf("bound-1 counts %v, want %v", counts, want)
			}

			// The same fixed-seed releases, in the same order, on both.
			for _, rel := range []struct {
				path string
				body any
			}{
				{"/v1/tenants/legacy/query", QueryRequest{SQL: "SELECT COUNT(*) FROM events", GroupBy: "g", Epsilon: 1}},
				{"/v1/tenants/legacy/estimate", EstimateRequest{Table: "events", Column: "v", Stat: "mean", Epsilon: 0.5}},
			} {
				var got, want map[string]any
				if code := c.do("POST", rel.path, rel.body, &got); code != http.StatusOK {
					t.Fatalf("%s on the recovered tenant: %d %v", rel.path, code, got)
				}
				if code := tc.do("POST", rel.path, rel.body, &want); code != http.StatusOK {
					t.Fatalf("%s on the twin: %d %v", rel.path, code, want)
				}
				compared := 0
				for _, k := range []string{"value", "rows"} {
					if want[k] == nil {
						continue
					}
					compared++
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Fatalf("%s %s: recovered %v, twin %v", rel.path, k, got[k], want[k])
					}
				}
				if compared == 0 {
					t.Fatalf("%s: no released value in %v", rel.path, want)
				}
			}
		})
	}
}
