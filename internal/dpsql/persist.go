package dpsql

import (
	"fmt"
	"sort"
)

// This file is the persistence face of the schema layer: a table can be
// exported as a serializable TableState (what the durable store's
// snapshots hold) and a database rebuilt from one on boot. Rows are
// flattened into global insertion order (merged across shards by sequence
// number), so a snapshot round-trips the exact row order a deterministic
// release consumes. Placement is not recorded: a row's shard is
// shardFor(user id) under the table's shard count, so Import rebuilds it.

// TableState is the serializable snapshot of one table: full schema,
// shard count, and every stored row in global insertion order. Rows use
// Value's compact JSON encoding. Shards is the partition count (0 means
// 1 — the pre-shard encoding, which this struct remains byte-compatible
// with for single-shard tables). States written by earlier versions may
// carry a per-row "shard_of" placement array; decoding ignores it.
type TableState struct {
	Name    string    `json:"name"`
	Columns []Column  `json:"columns"`
	UserCol string    `json:"user_col"`
	Shards  int       `json:"shards,omitempty"`
	Rows    [][]Value `json:"rows,omitempty"`
}

// Export captures the table's schema, shard count, and a consistent
// point-in-time row snapshot in global insertion order. Rows are
// materialized fresh from the typed column shards (the wire format stays
// row-oriented regardless of the in-memory layout), bit-identical to the
// rows the table was fed. Single-shard tables omit the shard count, so
// their snapshots are byte-identical to the pre-columnar, pre-shard
// encoding.
func (t *Table) Export() TableState {
	st := TableState{
		Name:    t.Name,
		Columns: append([]Column(nil), t.Columns...),
		UserCol: t.UserCol,
		Rows:    t.snapshot(),
	}
	if t.nshards > 1 {
		st.Shards = t.nshards
	}
	return st
}

// Export captures every table in the database, sorted by name. The
// durable store does not call it: its snapshots are folded from the WAL
// by compaction, never captured from live tables.
func (db *DB) Export() []TableState {
	db.mu.RLock()
	tabs := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tabs = append(tabs, t)
	}
	db.mu.RUnlock()
	sort.Slice(tabs, func(i, j int) bool { return tabs[i].Name < tabs[j].Name })
	out := make([]TableState, len(tabs))
	for i, t := range tabs {
		out[i] = t.Export()
	}
	return out
}

// Import rebuilds one table from a snapshot state: schema validation runs
// through the same Create path a live DDL request uses, and every row is
// re-validated on append, so a hand-edited or corrupted snapshot cannot
// smuggle in rows the schema would have refused.
//
// Topology: the rebuilt table gets the DB's default shard count when one
// is configured (the tenant's topology is authoritative), falling back to
// the state's own. Rows go through AppendRows, so each lands in
// shardFor(user id) whatever the state's shard count was: resizing a
// topology is a pure storage reorganization, invisible to releases.
func (db *DB) Import(st TableState) (*Table, error) {
	target := db.DefaultShards()
	if target == 0 {
		target = st.Shards
	}
	t, err := db.CreateSharded(st.Name, st.Columns, st.UserCol, target)
	if err != nil {
		return nil, err
	}
	if err := t.AppendRows(st.Rows); err != nil {
		return nil, fmt.Errorf("dpsql: importing table %q: %w", st.Name, err)
	}
	return t, nil
}
