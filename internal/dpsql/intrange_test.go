package dpsql

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// TestIntCellRange pins the INT admission rule at its boundaries: a cell
// is stored only when it is integral and inside the int64 range, whatever
// its Kind, and a stored cell reads back unchanged through Insert,
// ColumnInts and a JSON Export/Import round trip. Everything else is
// refused with ErrSchema, on every platform.
func TestIntCellRange(t *testing.T) {
	intF := func(f float64) Value { return Value{Kind: KindInt, F: f} }
	cases := []struct {
		name string
		in   Value
		want int64 // read back; ignored when refused
		ok   bool
	}{
		{"Int(MinInt64)", Int(math.MinInt64), math.MinInt64, true},
		{"Float(-2^63)", Float(-0x1p63), math.MinInt64, true},
		{"Float(-2^63-2048)", Float(-0x1p63 - 2048), 0, false},
		{"Int(MaxInt64)", Int(math.MaxInt64), 0, false},
		{"Float(2^63)", Float(0x1p63), 0, false},
		{"Float(2^63-1024)", Float(0x1p63 - 1024), 1<<63 - 1024, true},
		{"Int(-1)", Int(-1), -1, true},
		{"Int(0)", Int(0), 0, true},
		{"Float(+0)", Float(0), 0, true},
		{"Float(-0)", Float(math.Copysign(0, -1)), 0, true},
		{"Int(1)", Int(1), 1, true},
		{"Float(2^53)", Float(0x1p53), 1 << 53, true},
		{"Int(2^53)", Int(1 << 53), 1 << 53, true},
		{"Float(1.5)", Float(1.5), 0, false},
		{"IntKind(0.5)", intF(0.5), 0, false},
		{"Float(NaN)", Float(math.NaN()), 0, false},
		{"IntKind(NaN)", intF(math.NaN()), 0, false},
		{"Float(+Inf)", Float(math.Inf(1)), 0, false},
		{"Float(-Inf)", Float(math.Inf(-1)), 0, false},
		{"IntKind(+Inf)", intF(math.Inf(1)), 0, false},
		{"IntKind(-Inf)", intF(math.Inf(-1)), 0, false},
		{"IntKind(2^63)", intF(0x1p63), 0, false},
	}
	cols := []Column{{Name: "uid", Kind: KindString}, {Name: "n", Kind: KindInt}}
	for _, shards := range []int{1, 4} {
		db := NewDB()
		tab, err := db.CreateSharded("r", cols, "uid", shards)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, c := range cases {
			err := tab.Insert(Str(c.name), c.in)
			if !c.ok {
				if !errors.Is(err, ErrSchema) {
					t.Errorf("shards=%d %s: Insert err = %v, want ErrSchema", shards, c.name, err)
				}
				if err := tab.AppendRows([][]Value{{Str(c.name), c.in}}); !errors.Is(err, ErrSchema) {
					t.Errorf("shards=%d %s: AppendRows err = %v, want ErrSchema", shards, c.name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("shards=%d %s: Insert: %v", shards, c.name, err)
			}
			want = append(want, c.want)
		}
		got, err := tab.ColumnInts("n")
		if err != nil {
			t.Fatal(err)
		}
		checkInts(t, shards, "ColumnInts", got, want)

		enc, err := json.Marshal(tab.Export())
		if err != nil {
			t.Fatal(err)
		}
		var st TableState
		if err := json.Unmarshal(enc, &st); err != nil {
			t.Fatal(err)
		}
		tab2, err := NewDB().Import(st)
		if err != nil {
			t.Fatalf("shards=%d: Import: %v", shards, err)
		}
		got, err = tab2.ColumnInts("n")
		if err != nil {
			t.Fatal(err)
		}
		checkInts(t, shards, "Export/Import", got, want)
	}
}

func checkInts(t *testing.T, shards int, via string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("shards=%d %s: %d values, want %d", shards, via, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shards=%d %s: value %d = %d, want %d", shards, via, i, got[i], want[i])
		}
	}
}

// TestIntUserIDsAtTheLimitsStayDistinct: INT user ids at both ends of the
// int64 range are two users, not one. Int(math.MaxInt64) rounds to 2^63,
// which used to read back as math.MinInt64 and merge with it; it is now
// refused instead.
func TestIntUserIDsAtTheLimitsStayDistinct(t *testing.T) {
	tab, err := NewDB().Create("r", []Column{{Name: "uid", Kind: KindInt}, {Name: "v", Kind: KindFloat}}, "uid")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(Int(math.MaxInt64), Float(3)); !errors.Is(err, ErrSchema) {
		t.Fatalf("Int(MaxInt64) user id: err = %v, want ErrSchema", err)
	}
	for _, row := range [][]Value{{Int(math.MinInt64), Float(1)}, {Int(1<<63 - 1024), Float(3)}} {
		if err := tab.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	if n := tab.NumUsers(); n != 2 {
		t.Fatalf("NumUsers = %d, want 2", n)
	}
	means, err := tab.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != 2 || means[0]+means[1] != 4 {
		t.Fatalf("UserMeans = %v, want the two users' own values", means)
	}
}
