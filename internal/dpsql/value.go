// Package dpsql is a small in-memory relational engine that answers
// self-join-free aggregation queries under user-level differential privacy,
// the database application the paper highlights in §1.1.1 (DFY+22): sum
// estimation over an unbounded domain is exactly the private aggregation
// problem, and the paper's empirical estimators answer it with
// instance-optimal error and no domain-size assumption.
//
// The engine supports a restricted SQL subset:
//
//	SELECT <agg>(<col>|*) [, <agg>(<col>|*)]* FROM <table>
//	    [WHERE <predicate>] [GROUP BY <col>]
//
// with agg ∈ {COUNT, SUM, AVG, MEDIAN, P25, P75, VAR, STDDEV, IQR, MIN,
// MAX} plus QUANTILE(<col>, p) for p in (0, 1), and predicates built from
// comparisons, AND, OR, NOT, and parentheses. A multi-aggregate SELECT
// list is one release whose budget is split evenly across its aggregates.
//
// Privacy model: every table designates a user column; one *user* (all of
// their rows) is the unit of privacy. Aggregations first collapse rows to
// one contribution per user and then run the repository's universal
// estimators over the per-user contributions, so no bounds on user
// contributions are required. GROUP BY keys are released as-is and must be
// public categories (the standard assumption for partitioned release).
// Grouped releases are priced by parallel composition: the scan clamps each
// user to its first-seen group (contribution bound 1 by default), so groups
// are disjoint in users and a grouped query costs one release, not one per
// group. DB.Exec documents larger bounds.
package dpsql

import (
	"fmt"
	"strconv"
)

// Kind is a column type.
type Kind int

// Column kinds.
const (
	KindFloat Kind = iota
	KindInt
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindFloat:
		return "FLOAT"
	case KindInt:
		return "INT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed cell. The JSON encoding is compact (short
// keys, zero fields omitted) because the durable store serializes every
// stored row through it — see TableState.
type Value struct {
	Kind Kind    `json:"k,omitempty"`
	F    float64 `json:"f,omitempty"` // numeric payload (KindFloat and KindInt)
	S    string  `json:"s,omitempty"` // string payload (KindString)
}

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Int wraps an int64 (stored as float64; exact below 2^53). Past 2^53 it
// rounds, and Int(math.MaxInt64) rounds to 2^63, which tables refuse.
func Int(i int64) Value { return Value{Kind: KindInt, F: float64(i)} }

// Str wraps a string.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// IsNumeric reports whether the value carries a number.
func (v Value) IsNumeric() bool { return v.Kind == KindFloat || v.Kind == KindInt }

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return v.S
	case KindInt:
		return strconv.FormatInt(int64(v.F), 10)
	default:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	}
}

// Compare orders two values of the same kind: -1, 0, or +1. Comparing
// incompatible kinds returns an error.
func (v Value) Compare(o Value) (int, error) {
	if v.IsNumeric() != o.IsNumeric() {
		return 0, fmt.Errorf("dpsql: cannot compare %s with %s", v.Kind, o.Kind)
	}
	if v.IsNumeric() {
		switch {
		case v.F < o.F:
			return -1, nil
		case v.F > o.F:
			return 1, nil
		default:
			return 0, nil
		}
	}
	switch {
	case v.S < o.S:
		return -1, nil
	case v.S > o.S:
		return 1, nil
	default:
		return 0, nil
	}
}
