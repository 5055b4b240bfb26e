package dpsql

import (
	"slices"
	"sync"
)

// foldCacheSize bounds how many merged folds a table keeps: one per
// recently released shape, most recently used first. A shape's entry
// holds what one release of it allocates anyway (users × inputs floats)
// plus a sorted copy of each input a bucket consumer reads (8 B per user
// per such input), so the bound caps the retained memory at a few
// releases' worth.
const foldCacheSize = 4

// foldCache is a table's small set of merged per-user folds — the
// noise-free replace-one-user reduction a release computes from its
// snapshot before any mechanism runs. An entry is keyed by the fold's
// shape and by the row count of every shard in the snapshot it was
// folded from. Shards are append-only and stored cells are never
// mutated, so two snapshots with equal row counts hold identical rows,
// and a cached fold is bit for bit the one a fresh scan of the current
// snapshot computes: no write invalidates an entry, a release over a
// changed table simply misses, and its fold replaces the shape's stale
// entry. Entries are immutable once stored; concurrent releases read
// them shared.
//
// An entry keeps, beside each per-user input that a quantile, range or
// mean release reads, the same values sorted (empirical.Sorted): those
// releases discretize the sorted copy in order, so the sort is paid once
// per snapshot, on the miss that builds the entry, and a repeat release
// sorts nothing.
type foldCache struct {
	mu      sync.Mutex
	entries []foldEntry // most recently used first
}

// foldEntry is one cached fold: a []groupFold for an SQL shape, a
// meansFold for UserMeans.
type foldEntry struct {
	shape string
	rows  []int // rows[s]: shard s's row count in the folded snapshot
	fold  any
}

// rowCounts appends every shard's current row count to rows: all a
// cache lookup reads of the shards.
func (t *Table) rowCounts(rows []int) []int {
	for _, sh := range t.shards {
		sh.mu.RLock()
		rows = append(rows, len(sh.seqs))
		sh.mu.RUnlock()
	}
	return rows
}

// cachedFold returns shape's fold of the table's current snapshot: the
// cached entry when one was folded from shards with today's row counts,
// else fold over fresh shard views, which is then stored in place of
// shape's previous entry. A hit reads only the row counts; the views,
// which copy each shard's column headers, are taken on a miss, and the
// stored entry is keyed by the counts of the views actually folded,
// since an append can land between the two reads. The caller must not
// modify the result, and fold must compute it from snaps alone.
func cachedFold[T any](t *Table, shape string, fold func(snaps []shardSnap) T) T {
	rows := t.rowCounts(make([]int, 0, 16))
	c := &t.folds
	c.mu.Lock()
	for i, e := range c.entries {
		if e.shape == shape && slices.Equal(e.rows, rows) {
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			c.mu.Unlock()
			return e.fold.(T)
		}
	}
	c.mu.Unlock()

	snaps := t.shardSnapshots()
	out := fold(snaps)
	e := foldEntry{shape: shape, rows: make([]int, len(snaps)), fold: out}
	for s, sn := range snaps {
		e.rows[s] = sn.n
	}
	c.mu.Lock()
	kept := append(make([]foldEntry, 0, foldCacheSize), e)
	for _, old := range c.entries {
		if old.shape != shape && len(kept) < foldCacheSize {
			kept = append(kept, old)
		}
	}
	c.entries = kept
	c.mu.Unlock()
	return out
}
