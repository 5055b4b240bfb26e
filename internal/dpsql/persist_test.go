package dpsql

import (
	"encoding/json"
	"errors"
	"testing"
)

func seedTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	tab, err := db.Create("events", []Column{
		{Name: "uid", Kind: KindString},
		{Name: "v", Kind: KindFloat},
		{Name: "n", Kind: KindInt},
	}, "uid")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tab.Insert(Str("u"+string(rune('a'+i))), Float(float64(i)+0.5), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return db, tab
}

// TestSingleShardExportEncoding pins a single-shard table's snapshot
// encoding byte for byte: no shard count and no placement, exactly the
// pre-shard format, so such snapshots never change across versions.
func TestSingleShardExportEncoding(t *testing.T) {
	tab, err := NewDB().Create("events", []Column{
		{Name: "uid", Kind: KindString},
		{Name: "v", Kind: KindFloat},
		{Name: "n", Kind: KindInt},
	}, "uid")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]Value{
		{Str("ua"), Float(0.5), Int(0)},
		{Str("ub"), Float(-1.25), Int(7)},
		{Str("ua"), Int(2), Float(-3)},
	} {
		if err := tab.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	got, err := json.Marshal(tab.Export())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"name":"events","columns":[{"name":"uid","kind":2},{"name":"v","kind":0},{"name":"n","kind":1}],"user_col":"uid","rows":[[{"k":2,"s":"ua"},{"f":0.5},{"k":1}],[{"k":2,"s":"ub"},{"f":-1.25},{"k":1,"f":7}],[{"k":2,"s":"ua"},{"f":2},{"k":1,"f":-3}]]}`
	if string(got) != want {
		t.Fatalf("single-shard export encoding changed:\n got %s\nwant %s", got, want)
	}
}

func TestTableExportImportRoundTrip(t *testing.T) {
	_, tab := seedTable(t)
	st := tab.Export()

	// Through JSON, as the durable store serializes it.
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back TableState
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	tab2, err := db2.Import(back)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Name != "events" || tab2.UserCol != "uid" || len(tab2.Columns) != 3 {
		t.Fatalf("schema mismatch: %+v", tab2)
	}
	if tab2.NumRows() != tab.NumRows() {
		t.Fatalf("rows %d != %d", tab2.NumRows(), tab.NumRows())
	}
	m1, err := tab.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tab2.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) {
		t.Fatalf("user count %d != %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("user mean %d: %v != %v", i, m1[i], m2[i])
		}
	}
	zs, err := tab2.UserIntSums("n")
	if err != nil {
		t.Fatal(err)
	}
	if len(zs) != 10 || zs[3] != 3 {
		t.Fatalf("int column corrupted: %v", zs)
	}
}

func TestDBExportSortedAndComplete(t *testing.T) {
	db := NewDB()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := db.Create(name, []Column{{Name: "u", Kind: KindString}}, "u"); err != nil {
			t.Fatal(err)
		}
	}
	states := db.Export()
	if len(states) != 3 {
		t.Fatalf("exported %d tables", len(states))
	}
	if states[0].Name != "alpha" || states[1].Name != "mid" || states[2].Name != "zeta" {
		t.Fatalf("not sorted: %v %v %v", states[0].Name, states[1].Name, states[2].Name)
	}
}

func TestImportRevalidatesRows(t *testing.T) {
	db := NewDB()
	st := TableState{
		Name:    "bad",
		Columns: []Column{{Name: "u", Kind: KindString}, {Name: "v", Kind: KindFloat}},
		UserCol: "u",
		Rows:    [][]Value{{Str("u1"), Str("not-a-number")}},
	}
	if _, err := db.Import(st); !errors.Is(err, ErrSchema) {
		t.Fatalf("import of schema-violating row: %v", err)
	}
	// The failed import must not leave a half-imported table behind with
	// rows... the table exists (Create ran) but with zero rows.
	tab, err := db.TableByName("bad")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 0 {
		t.Fatalf("half-imported rows: %d", tab.NumRows())
	}
}

func TestAppendRowsAllOrNothing(t *testing.T) {
	_, tab := seedTable(t)
	n := tab.NumRows()
	err := tab.AppendRows([][]Value{
		{Str("ok"), Float(1), Int(1)},
		{Str("bad"), Str("oops"), Int(2)},
	})
	if !errors.Is(err, ErrSchema) {
		t.Fatalf("append of bad batch: %v", err)
	}
	if tab.NumRows() != n {
		t.Fatalf("partial batch stored: %d rows, want %d", tab.NumRows(), n)
	}
}

func TestValueCompactJSON(t *testing.T) {
	b, err := json.Marshal([]Value{Float(2.5), Int(3), Str("x")})
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"f":2.5},{"k":1,"f":3},{"k":2,"s":"x"}]`
	if string(b) != want {
		t.Fatalf("encoding drifted: %s (want %s) — stored WALs depend on it", b, want)
	}
	var back []Value
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back[0].Kind != KindFloat || back[0].F != 2.5 ||
		back[1].Kind != KindInt || back[1].F != 3 ||
		back[2].Kind != KindString || back[2].S != "x" {
		t.Fatalf("decoded %+v", back)
	}
}
