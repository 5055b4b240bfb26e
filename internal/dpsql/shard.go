package dpsql

import (
	"hash/fnv"
	"sync"
	"time"
)

// This file is the partitioned columnar store under Table: a table's rows
// live in N shards keyed by a hash of the user id, each shard guarded by
// its own RWMutex. Within a shard, storage is columnar — one typed slice
// per schema column ([]float64 / []int64, or dictionary codes for a
// string column) plus a dictionary-encoded user column and a parallel seq
// slice — so release scans are tight loops over contiguous memory with no
// per-row []Value boxing, interface dispatch or string hashing.
// Ingestion stripes across the per-shard locks instead of serializing on
// one table-wide lock, and release scans fan out over the shards; the
// shard is the one unit of scan parallelism.
//
// Why merging is free (privacy): the universal estimators consume one
// contribution per user. Each user lives in exactly one shard, so a
// shard's per-user aggregate (sum, count) is that user's whole one; the
// merge only places the aggregates in user-id order, and the combined
// collapse is exactly the collapse a monolithic scan would have produced.
// The merge happens before the single mechanism invocation and the single
// ledger deduction, so shard count changes throughput, never noise
// semantics or privacy cost.
//
// Determinism: the estimators consume the seeded RNG in input order, so
// contributions go out in user-id order, read from a rank-indexed
// accumulator under the table's cached user order (order.go) — no
// release sorts users. Users are routed by hash, so all of one user's
// rows colocate in one shard in arrival order: each user's fold is the
// one a single-shard table runs, bit-for-bit identical across shard
// counts.
// Record-order readers (ColumnFloats/ColumnInts) recover global
// insertion order from per-row sequence numbers assigned at insert.

// MaxShards bounds a table's shard count; beyond this the per-shard
// bookkeeping costs more than the striping wins. The serve layer
// validates tenant configuration against the same limit, so a recorded
// topology is always the topology the table actually has.
const MaxShards = 1024

// colData is the typed storage of one column within one shard, chosen by
// the column's Kind. Int columns store int64(Value.F) — Value carries
// ints in a float64, and every reader already truncated through
// int64(F), so the stored integer and the reconstructed Value are
// bit-identical to the row-store's. String columns are dictionary-coded:
// codes[i] indexes dict, the shard's distinct values in first-appearance
// order (dmap is the writer's reverse map). A string user column IS the
// shard's user dictionary (uix/uids); snapshots alias it into this slot.
type colData struct {
	fs    []float64 // KindFloat
	is    []int64   // KindInt
	codes []int32   // KindString
	dict  []string
	dmap  map[string]int32
}

// intern returns s's code in an append-only dictionary, adding it first
// if it is new.
func intern(dict *[]string, dmap map[string]int32, s string) int32 {
	c, ok := dmap[s]
	if !ok {
		c = int32(len(*dict))
		*dict = append(*dict, s)
		dmap[s] = c
	}
	return c
}

// tableShard is one partition of a table's columnar store. cols, uix, and
// seqs are parallel by row index: seqs[i] is the table-global insertion
// sequence of row i, strictly increasing within a shard (assigned under
// the shard lock), and uix[i] is the row's user as a dense index into
// uids (the shard-local user dictionary, first-appearance order; umap is
// the writer-side reverse map). Dictionary-encoding the user column is
// what lets the per-user collapse run without a hash lookup per row; a
// string user column is stored only there (see colData). Stored cells are
// never mutated, so slice-header copies taken under the read lock are a
// consistent point-in-time view.
//
// Layout note: the struct is exactly two cache lines (128 bytes: 24 mutex
// + 4×24 slice headers + 8 map pointer), so the separately-allocated
// shards of one table never share a line and striped writers cannot
// false-share each other's locks — the same treatment Table.nextSeq got.
// A size test pins the multiple-of-64 invariant.
type tableShard struct {
	mu   sync.RWMutex
	cols []colData
	uix  []int32
	uids []string
	umap map[string]int32
	seqs []uint64
}

// newTableShard builds an empty shard for the schema.
func newTableShard(cols []Column) *tableShard {
	sh := &tableShard{cols: make([]colData, len(cols)), umap: map[string]int32{}}
	for c, col := range cols {
		if col.Kind == KindString {
			sh.cols[c].dmap = map[string]int32{}
		}
	}
	return sh
}

// appendRow stores one converted row. Callers hold the shard write lock.
func (sh *tableShard) appendRow(t *Table, row []Value, seq uint64) {
	for c, v := range row {
		col := &sh.cols[c]
		switch t.Columns[c].Kind {
		case KindString:
			if c != t.userIx {
				col.codes = append(col.codes, intern(&col.dict, col.dmap, v.S))
			}
		case KindInt:
			col.is = append(col.is, int64(v.F))
		default:
			col.fs = append(col.fs, v.F)
		}
	}
	sh.uix = append(sh.uix, intern(&sh.uids, sh.umap, row[t.userIx].String()))
	sh.seqs = append(sh.seqs, seq)
}

// shardSnap is a point-in-time view of one shard: n consistent rows, the
// column slice headers (deep-copied so a concurrent append's header
// update cannot race the view), and the user dictionary's first nu
// entries (every uix value below n points under nu, and every one of
// those users has a row below n). Dictionaries are append-only, so a
// view's dictionary prefix never changes under it.
type shardSnap struct {
	n    int
	nu   int
	cols []colData
	uix  []int32
	uids []string
	seqs []uint64
}

// view captures the shard's snapshot under its read lock. A string user
// column reads through the user dictionary.
func (sh *tableShard) view(t *Table) shardSnap {
	sh.mu.RLock()
	sn := shardSnap{
		n:    len(sh.seqs),
		nu:   len(sh.uids),
		cols: append([]colData(nil), sh.cols...),
		uix:  sh.uix,
		uids: sh.uids,
		seqs: sh.seqs,
	}
	sh.mu.RUnlock()
	if t.Columns[t.userIx].Kind == KindString {
		sn.cols[t.userIx].codes, sn.cols[t.userIx].dict = sn.uix, sn.uids
	}
	return sn
}

// float reads row i of a numeric column as its Value.F payload — the
// exact float64 the row store carried (int columns store int64(F), and
// float64(int64(F)) round-trips for every value convertRow admits).
func (sn shardSnap) float(kind Kind, ix, i int) float64 {
	if kind == KindInt {
		return float64(sn.cols[ix].is[i])
	}
	return sn.cols[ix].fs[i]
}

// value materializes row i's cell as a Value, bit-identical to the one
// the row store would have held.
func (sn shardSnap) value(kind Kind, ix, i int) Value {
	switch kind {
	case KindString:
		c := &sn.cols[ix]
		return Str(c.dict[c.codes[i]])
	case KindInt:
		return Value{Kind: KindInt, F: float64(sn.cols[ix].is[i])}
	default:
		return Float(sn.cols[ix].fs[i])
	}
}

// groupKeys numbers the GROUP BY keys of column ix: keys[i] is selected
// row i's key id, below nkeys. A string column's dictionary codes are
// such ids as they are; numeric values are numbered by rendered key, so
// NaNs share one group and -0 and 0 stay apart, as their keys print.
func (sn shardSnap) groupKeys(kind Kind, ix int, sel []bool) (keys []int32, nkeys int) {
	if kind == KindString {
		return sn.cols[ix].codes, len(sn.cols[ix].dict)
	}
	keys = make([]int32, sn.n)
	ids := map[string]int32{}
	for i := range keys {
		if sel != nil && !sel[i] {
			continue
		}
		s := sn.value(kind, ix, i).String()
		k, ok := ids[s]
		if !ok {
			k = int32(len(ids))
			ids[s] = k
		}
		keys[i] = k
	}
	return keys, len(ids)
}

// row materializes one full row — the persistence/merge path only; scans
// never box rows.
func (sn shardSnap) row(t *Table, i int) []Value {
	row := make([]Value, len(t.Columns))
	for c := range t.Columns {
		row[c] = sn.value(t.Columns[c].Kind, c, i)
	}
	return row
}

// Fanout runs n independent jobs run(0..n-1), returning when all have
// completed. The serve layer installs a worker-pool-backed implementation
// via DB.SetFanout so release scans spread across cores; nil means
// sequential execution. Implementations must tolerate nested calls: a
// release's shard fan itself runs from inside a worker-pool job (the
// pool's caller-driven work stealing makes that deadlock-free).
type Fanout func(n int, run func(i int))

// shardFor routes a user id to its shard: FNV-1a over the id, mod the
// shard count. The hash is stable across processes and restarts — WAL
// replay and snapshot import rebuild the same partitioning — and keyed on
// the user id so all of one user's rows colocate.
func (t *Table) shardFor(uid string) int {
	if t.nshards == 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(uid))
	return int(h.Sum64() % uint64(t.nshards))
}

// NumShards reports the table's shard count (fixed at creation).
func (t *Table) NumShards() int { return t.nshards }

// runFan executes run(0..n-1) through the installed fan-out (sequentially
// when none is installed or there is nothing to parallelize).
func (t *Table) runFan(n int, run func(int)) {
	if f, _ := t.fan.Load().(Fanout); f != nil && n > 1 {
		f(n, run)
		return
	}
	for i := 0; i < n; i++ {
		run(i)
	}
}

// shardSnapshots captures a point-in-time view of every shard. Views are
// taken shard by shard, so the cut is per-shard consistent (a row is
// either wholly in or out) but not a global barrier against concurrent
// ingestion — the same semantics concurrent Insert vs Exec always had.
func (t *Table) shardSnapshots() []shardSnap {
	out := make([]shardSnap, len(t.shards))
	for i, sh := range t.shards {
		out[i] = sh.view(t)
	}
	return out
}

// mergeOrder walks per-shard snapshots in global insertion order with a
// k-way merge on the per-row sequence numbers (each shard's seqs are
// already sorted), calling emit(shard, row) once per row. Small shard
// counts use a linear minimum scan (cache-friendly, no bookkeeping);
// large ones a binary min-heap over the shard cursors, so the merge is
// O(rows·k) only while k is small and O(rows·log k) past that.
func mergeOrder(snaps []shardSnap, emit func(shard, row int)) {
	if len(snaps) == 1 {
		for i := 0; i < snaps[0].n; i++ {
			emit(0, i)
		}
		return
	}
	total := 0
	for _, sn := range snaps {
		total += sn.n
	}
	if len(snaps) <= 8 {
		idx := make([]int, len(snaps))
		for done := 0; done < total; done++ {
			best, bestSeq := -1, uint64(0)
			for s, sn := range snaps {
				if idx[s] >= sn.n {
					continue
				}
				if seq := sn.seqs[idx[s]]; best < 0 || seq < bestSeq {
					best, bestSeq = s, seq
				}
			}
			emit(best, idx[best])
			idx[best]++
		}
		return
	}
	// Heap of (next seq, shard, cursor), keyed on seq.
	type cursor struct {
		seq   uint64
		shard int
		i     int
	}
	h := make([]cursor, 0, len(snaps))
	push := func(c cursor) {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].seq <= h[i].seq {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() cursor {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && h[l].seq < h[m].seq {
				m = l
			}
			if r < len(h) && h[r].seq < h[m].seq {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for s, sn := range snaps {
		if sn.n > 0 {
			push(cursor{seq: sn.seqs[0], shard: s, i: 0})
		}
	}
	for len(h) > 0 {
		c := pop()
		emit(c.shard, c.i)
		if next := c.i + 1; next < snaps[c.shard].n {
			push(cursor{seq: snaps[c.shard].seqs[next], shard: c.shard, i: next})
		}
	}
}

// shardUserAggs folds one shard's rows into per-user accumulators (sum
// over colIx, row count) in one sequential pass, row order — all of a
// hash-routed user's rows live in this shard in arrival order, so each
// is that user's full accumulator, built in the same order a monolithic
// scan would use. One dense accumulator per dictionary user, indexed
// directly: no hash lookup in the loop. colIx < 0 accumulates row
// counts only.
func (t *Table) shardUserAggs(sn shardSnap, colIx int) []userAgg {
	aggs := make([]userAgg, sn.nu)
	switch {
	case colIx < 0:
		for _, u := range sn.uix {
			aggs[u].count++
		}
	case t.Columns[colIx].Kind == KindInt:
		is := sn.cols[colIx].is
		for i, u := range sn.uix {
			a := &aggs[u]
			a.sum += float64(is[i])
			a.count++
		}
	default:
		fs := sn.cols[colIx].fs
		for i, u := range sn.uix {
			a := &aggs[u]
			a.sum += fs[i]
			a.count++
		}
	}
	return aggs
}

// mergeUserAggs places per-shard aggregates (parts[s] dense over shard
// s's user dictionary) in user-id order: each lands in its user's rank
// slot, and no user id is compared. A user lives in one shard, so every
// slot is filled at most once. This is the replace-one-user reduction's
// sharded form: the merged collapse still changes in exactly one
// position between neighboring databases.
func mergeUserAggs[T any](ord *userOrder, parts [][]T) []T {
	acc := make([]T, len(ord.ids))
	seen := make([]bool, len(ord.ids))
	for s, p := range parts {
		rank := ord.rank[s]
		for u, v := range p {
			acc[rank[u]], seen[rank[u]] = v, true
		}
	}
	out := acc[:0] // compact in place
	for r, v := range acc {
		if seen[r] {
			out = append(out, v)
		}
	}
	return out
}

// ShardObserver receives one sample per shard of a fanned scan: the
// shard index, the row count the shard walked, and its wall time.
// Observers run on the fan-out workers, so they must be safe for
// concurrent use across shards.
type ShardObserver func(shard, rows int, d time.Duration)

// fanUsers folds every shard (in parallel under the installed fan-out)
// into dense per-user aggregates, reporting each shard's scan to every
// observer, and merges them in user-id order (see mergeUserAggs).
func fanUsers[T any](t *Table, obs []ShardObserver, fold func(sn shardSnap) []T) []T {
	snaps := t.shardSnapshots()
	parts := make([][]T, len(snaps))
	t.runFan(len(snaps), func(i int) {
		s0 := time.Now()
		parts[i] = fold(snaps[i])
		for _, ob := range obs {
			ob(i, snaps[i].n, time.Since(s0))
		}
	})
	return mergeUserAggs(t.userOrder(snaps), parts)
}

// fanUserAggs is fanUsers over the (sum of colIx, row count) aggregates.
func (t *Table) fanUserAggs(colIx int, obs ...ShardObserver) []userAgg {
	return fanUsers(t, obs, func(sn shardSnap) []userAgg { return t.shardUserAggs(sn, colIx) })
}
