package dpsql

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dp"
	"repro/internal/empirical"
)

// Errors returned by the schema layer.
var (
	// ErrNoTable reports an unknown table name.
	ErrNoTable = errors.New("dpsql: no such table")
	// ErrNoColumn reports an unknown column name.
	ErrNoColumn = errors.New("dpsql: no such column")
	// ErrSchema reports an invalid schema or row.
	ErrSchema = errors.New("dpsql: schema error")
)

// Column describes one table column. The JSON tags are the durable
// store's snapshot encoding (Kind values are stable: 0 float, 1 int,
// 2 string).
type Column struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
}

// Table is an in-memory relation with a designated user column (the unit
// of privacy). Schema fields (Name, Columns, UserCol, byName, userIx) and
// the shard topology are immutable after Create; storage is partitioned
// into nshards columnar shards by a hash of the user id, each guarded by
// its own lock (see shard.go), so concurrent Inserts stripe across
// shards instead of serializing, and release scans fan out over shards
// and merge per-user partials over consistent per-shard snapshots.
type Table struct {
	Name    string
	Columns []Column
	UserCol string

	byName map[string]int
	userIx int

	nshards int
	shards  []*tableShard

	// nextSeq is the table-global insertion sequence number, bumped by
	// every striped writer on every shard — the one cache line all cores
	// share on the ingest path. The padding gives it a 64-byte line to
	// itself so the contended CAS traffic does not false-share with the
	// neighboring read-mostly fields (shards, fan), which every insert
	// and scan also touches.
	_       [64]byte
	nextSeq atomic.Uint64 // next global insertion sequence number
	_       [56]byte

	fan atomic.Value // Fanout installed by the owning DB (may be nil)

	// order is the cached user-id order over every shard's dictionary
	// (see order.go); orderMu serializes its rebuilds.
	order   atomic.Pointer[userOrder]
	orderMu sync.Mutex

	// folds caches the merged per-user folds of recent release shapes
	// (see foldcache.go).
	folds foldCache
}

// DB is a collection of tables with an optional shared privacy budget.
// The table registry and the ledger pointer are guarded by mu; a DB is
// safe for concurrent Create/TableByName/Exec/Run use.
type DB struct {
	mu        sync.RWMutex
	tables    map[string]*Table
	led       dp.Ledger
	defShards int    // shard count new tables get (0 means 1)
	fan       Fanout // shard fan-out installed on every table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: map[string]*Table{}} }

// SetDefaultShards sets the shard count tables created afterwards get
// (clamped to [1, MaxShards]; 0 means 1). The serve layer calls it with
// the tenant's configured topology before creating or importing tables.
func (db *DB) SetDefaultShards(n int) {
	db.mu.Lock()
	db.defShards = n
	db.mu.Unlock()
}

// DefaultShards reports the configured default shard count (0 means 1).
func (db *DB) DefaultShards() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.defShards
}

// SetFanout installs the shard fan-out used by release scans on every
// table, existing and future. The serve layer installs a worker-pool
// backed implementation; nil (the default) scans shards sequentially.
func (db *DB) SetFanout(f Fanout) {
	db.mu.Lock()
	db.fan = f
	tabs := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tabs = append(tabs, t)
	}
	db.mu.Unlock()
	for _, t := range tabs {
		t.setFanout(f)
	}
}

// setFanout installs (or clears) the table's shard fan-out.
func (t *Table) setFanout(f Fanout) {
	// atomic.Value refuses nil; store a typed nil Fanout instead.
	t.fan.Store(f)
}

// clampShards normalizes a requested shard count.
func clampShards(n int) int {
	if n < 1 {
		return 1
	}
	if n > MaxShards {
		return MaxShards
	}
	return n
}

// Create registers a new table with the DB's default shard count. userCol
// must name one of the columns; it identifies the privacy unit.
func (db *DB) Create(name string, cols []Column, userCol string) (*Table, error) {
	return db.CreateSharded(name, cols, userCol, 0)
}

// CreateSharded registers a new table partitioned into shards (0 means
// the DB default, itself defaulting to 1; clamped to [1, MaxShards]).
func (db *DB) CreateSharded(name string, cols []Column, userCol string, shards int) (*Table, error) {
	lname := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[lname]; dup {
		return nil, fmt.Errorf("%w: table %q already exists", ErrSchema, name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: table %q needs at least one column", ErrSchema, name)
	}
	if shards == 0 {
		shards = db.defShards
	}
	shards = clampShards(shards)
	t := &Table{
		Name:    name,
		Columns: append([]Column(nil), cols...),
		UserCol: userCol,
		byName:  make(map[string]int, len(cols)),
		userIx:  -1,
		nshards: shards,
		shards:  make([]*tableShard, shards),
	}
	for i := range t.shards {
		t.shards[i] = newTableShard(cols)
	}
	t.order.Store(&userOrder{nu: make([]int, shards)})
	t.setFanout(db.fan)
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.byName[lc]; dup {
			return nil, fmt.Errorf("%w: duplicate column %q", ErrSchema, c.Name)
		}
		t.byName[lc] = i
		if strings.EqualFold(c.Name, userCol) {
			t.userIx = i
		}
	}
	if t.userIx < 0 {
		return nil, fmt.Errorf("%w: user column %q not in schema", ErrSchema, userCol)
	}
	db.tables[lname] = t
	return t, nil
}

// Drop removes a table from the registry, if present. The serve layer's
// durable path uses it to roll back a created table whose DDL could not
// be persisted, keeping the in-memory and durable views consistent.
func (db *DB) Drop(name string) {
	db.mu.Lock()
	delete(db.tables, strings.ToLower(name))
	db.mu.Unlock()
}

// TableByName looks a table up case-insensitively.
func (db *DB) TableByName(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// ColumnIndex resolves a column name case-insensitively.
func (t *Table) ColumnIndex(name string) (int, error) {
	i, ok := t.byName[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("%w: %q in table %q", ErrNoColumn, name, t.Name)
	}
	return i, nil
}

// convertRow validates one row against the schema and returns the
// kind-coerced copy (ints are accepted into float columns; integral
// floats into int columns). It is deterministic, so replaying the same
// raw row from a WAL converges on the same stored row.
//
// Every INT cell, Int values included, must be integral and inside the
// int64 range. Int(math.MaxInt64) carries F = 2^63, whose conversion Go
// leaves implementation-defined (amd64 reads it back as math.MinInt64),
// so without the check two user ids could silently become one.
func (t *Table) convertRow(vals []Value) ([]Value, error) {
	if len(vals) != len(t.Columns) {
		return nil, fmt.Errorf("%w: got %d values for %d columns", ErrSchema, len(vals), len(t.Columns))
	}
	row := make([]Value, len(vals))
	for i, v := range vals {
		want := t.Columns[i].Kind
		switch {
		case want == KindInt && v.IsNumeric():
			if f := v.F; !(-0x1p63 <= f && f < 0x1p63 && f == math.Trunc(f)) {
				return nil, fmt.Errorf("%w: column %q wants %s, got %s %v",
					ErrSchema, t.Columns[i].Name, want, v.Kind, f)
			}
			v = Int(int64(v.F))
		case v.Kind == want:
		case want == KindFloat && v.Kind == KindInt:
			v = Float(v.F)
		default:
			return nil, fmt.Errorf("%w: column %q wants %s, got %s",
				ErrSchema, t.Columns[i].Name, want, v.Kind)
		}
		row[i] = v
	}
	return row, nil
}

// Insert appends one row; values must match the schema's kinds (ints are
// accepted into float columns). The row lands in shardFor(user id), and
// only that shard's lock is taken, so concurrent inserts to different
// shards do not contend.
func (t *Table) Insert(vals ...Value) error {
	row, err := t.convertRow(vals)
	if err != nil {
		return err
	}
	sh := t.shards[t.shardFor(row[t.userIx].String())]
	sh.mu.Lock()
	// The sequence number is assigned under the shard lock so each
	// shard's seqs stay strictly increasing (the k-way merge invariant).
	sh.appendRow(t, row, t.nextSeq.Add(1)-1)
	sh.mu.Unlock()
	return nil
}

// AppendRows validates and appends a batch of rows — the bulk path
// snapshot import and WAL replay use. The batch is validated in full
// before any row is stored, so a bad row rejects the whole batch. Every
// row lands in shardFor(user id), the table's one placement rule. All
// shard locks are held (taken in index order) while the batch lands, so
// the batch becomes visible atomically and its sequence numbers follow
// batch order exactly.
func (t *Table) AppendRows(rows [][]Value) error {
	conv := make([][]Value, len(rows))
	for i, r := range rows {
		row, err := t.convertRow(r)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		conv[i] = row
	}
	for _, sh := range t.shards {
		sh.mu.Lock()
	}
	for _, row := range conv {
		t.shards[t.shardFor(row[t.userIx].String())].appendRow(t, row, t.nextSeq.Add(1)-1)
	}
	for _, sh := range t.shards {
		sh.mu.Unlock()
	}
	return nil
}

// NumRows returns the raw number of stored rows. It is not itself a DP
// release: callers either keep it out of released output (tests, data
// loading) or privatize it first (the serve layer's record-unit COUNT
// feeds it through a sensitivity-1 noise mechanism).
func (t *Table) NumRows() int {
	n := 0
	for _, sh := range t.shards {
		sh.mu.RLock()
		n += len(sh.seqs)
		sh.mu.RUnlock()
	}
	return n
}

// snapshot materializes a point-in-time view of the full row set in
// global insertion order, merged across shards by sequence number. Rows
// are rebuilt from the typed columns, bit-identical to the rows the
// table was fed — Export (an export/import round trip; no production
// caller: store snapshots come from compaction's WAL replay) and tests
// use it; the scan paths never box rows.
func (t *Table) snapshot() [][]Value {
	snaps := t.shardSnapshots()
	total := 0
	for _, sn := range snaps {
		total += sn.n
	}
	out := make([][]Value, 0, total)
	mergeOrder(snaps, func(s, i int) {
		out = append(out, snaps[s].row(t, i))
	})
	return out
}

// userAgg is one user's accumulated contribution to a numeric column.
type userAgg struct {
	sum   float64
	count int
}

// numericIndex resolves col and refuses string columns.
func (t *Table) numericIndex(col string) (int, error) {
	ix, err := t.ColumnIndex(col)
	if err != nil {
		return 0, err
	}
	if t.Columns[ix].Kind == KindString {
		return 0, fmt.Errorf("dpsql: column %q is %s, need numeric", col, KindString)
	}
	return ix, nil
}

// UserMeans collapses the named numeric column to one contribution per
// user — the mean of that user's rows. The scan fans out over the shards
// (parallel under an installed Fanout), each shard folding its typed
// column into dense per-user aggregates; because users are hash-routed,
// each is that user's whole fold, so the merged collapse is bit-for-bit
// the monolithic one. The walk that merges the shards writes each user's
// mean straight into the result. This is the estimate endpoint's input.
//
// The result is cached per column against the shards' row counts (see
// foldCache), so a repeat read over an unchanged table returns the same
// slice without a scan; callers must not modify it. The cached entry
// also holds the means sorted (SortedUserMeans), 8 B per user more.
// Optional observers receive one sample per shard of the fan (see
// ShardObserver); a cached read has no fan and calls none.
func (t *Table) UserMeans(col string, obs ...ShardObserver) ([]float64, error) {
	f, err := t.userMeans(col, obs)
	return f.xs, err
}

// SortedUserMeans is UserMeans with the cached entry's second slice: the
// same means in empirical.Sorted's order, which the quantile and range
// releases read. The sorted copy is built once per snapshot, with one
// allocation and one sort, on the miss that folds it, so a repeat
// release over an unchanged table sorts nothing. Callers must not
// modify either slice.
func (t *Table) SortedUserMeans(col string, obs ...ShardObserver) (means, sorted []float64, err error) {
	f, err := t.userMeans(col, obs)
	return f.xs, f.sorted, err
}

// meansFold is UserMeans' cached fold: the per-user means in user-id
// order, and the same values sorted.
type meansFold struct{ xs, sorted []float64 }

// userMeans returns col's cached meansFold, folding it on a miss.
func (t *Table) userMeans(col string, obs []ShardObserver) (meansFold, error) {
	ix, err := t.numericIndex(col)
	if err != nil {
		return meansFold{}, err
	}
	// Keyed apart from the SQL folds: this fold adds a NaN row into the
	// sum where the scan's pins it, so the two differ in NaN payloads.
	return cachedFold(t, "means c"+strconv.Itoa(ix), func(snaps []shardSnap) meansFold {
		xs := fanUsers(t, snaps, obs,
			func(sn shardSnap) []userAgg { return t.shardUserAggs(sn, ix) },
			func(a userAgg) float64 { return a.sum / float64(a.count) })
		return meansFold{xs: xs, sorted: empirical.Sorted(xs)}
	}), nil
}

// NumUsers returns the number of distinct users across every shard — the
// unit count a user-level COUNT release privatizes (sensitivity 1 under a
// one-user change). Every user lives in exactly one shard (shardFor), so
// it is the sum of the shards' user-dictionary sizes: no scan, no merge.
func (t *Table) NumUsers() int {
	n := 0
	for _, sh := range t.shards {
		sh.mu.RLock()
		n += len(sh.uids)
		sh.mu.RUnlock()
	}
	return n
}

// ColumnFloats returns the named numeric column's raw per-row values in
// global insertion order (merged across shards by sequence number) — the
// record-level-DP input shape for datasets where a row IS a user (no
// per-user collapse). Feeding it to a record-level ε-DP mechanism yields
// record-level ε-DP only; use UserMeans when one user may own several
// rows.
func (t *Table) ColumnFloats(col string) ([]float64, error) {
	ix, err := t.numericIndex(col)
	if err != nil {
		return nil, err
	}
	kind := t.Columns[ix].Kind
	snaps := t.shardSnapshots()
	if len(snaps) == 1 {
		sn := snaps[0]
		out := make([]float64, sn.n)
		if kind == KindInt {
			for i, v := range sn.cols[ix].is {
				out[i] = float64(v)
			}
		} else {
			copy(out, sn.cols[ix].fs)
		}
		return out, nil
	}
	total := 0
	for _, sn := range snaps {
		total += sn.n
	}
	out := make([]float64, 0, total)
	mergeOrder(snaps, func(s, i int) {
		out = append(out, snaps[s].float(kind, ix, i))
	})
	return out, nil
}

// ColumnInts returns the named INT column's raw per-row values in global
// insertion order — the record-level input to the paper's
// empirical-setting estimators (Section 3) when a row IS a user.
func (t *Table) ColumnInts(col string) ([]int64, error) {
	ix, err := t.ColumnIndex(col)
	if err != nil {
		return nil, err
	}
	if t.Columns[ix].Kind != KindInt {
		return nil, fmt.Errorf("dpsql: column %q is %s, need %s for an empirical release",
			col, t.Columns[ix].Kind, KindInt)
	}
	snaps := t.shardSnapshots()
	if len(snaps) == 1 {
		return append([]int64(nil), snaps[0].cols[ix].is...), nil
	}
	total := 0
	for _, sn := range snaps {
		total += sn.n
	}
	out := make([]int64, 0, total)
	mergeOrder(snaps, func(s, i int) {
		out = append(out, snaps[s].cols[ix].is[i])
	})
	return out, nil
}

// UserIntSums collapses the named INT column to one integer contribution
// per user (the sum of that user's rows) in user-id order — the input
// shape the paper's empirical-setting estimators (Section 3) take. Each
// shard folds its int column into dense per-user sums in one pass, and
// one walk over the user order places them. Optional observers receive
// one sample per shard of the fan (see ShardObserver).
func (t *Table) UserIntSums(col string, obs ...ShardObserver) ([]int64, error) {
	ix, err := t.ColumnIndex(col)
	if err != nil {
		return nil, err
	}
	if t.Columns[ix].Kind != KindInt {
		return nil, fmt.Errorf("dpsql: column %q is %s, need %s for an empirical release",
			col, t.Columns[ix].Kind, KindInt)
	}
	return fanUsers(t, t.shardSnapshots(), obs, func(sn shardSnap) []int64 {
		sums := make([]int64, sn.nu)
		is := sn.cols[ix].is
		for i, u := range sn.uix {
			sums[u] += is[i]
		}
		return sums
	}, func(s int64) int64 { return s }), nil
}
