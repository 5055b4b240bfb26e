package dpsql

import "sync"

// foldCacheSize bounds how many merged folds a table keeps: one per
// recently released shape, most recently used first. A shape's entry
// holds what one release of it allocates anyway (users × inputs floats),
// so the bound caps the retained memory at a few releases' worth.
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
type foldCache struct {
	mu      sync.Mutex
	entries []foldEntry // most recently used first
}

// foldEntry is one cached fold: a []groupFold for an SQL shape, a
// []float64 for UserMeans.
type foldEntry struct {
	shape string
	rows  []int // rows[s]: shard s's row count in the folded snapshot
	fold  any
}

// folded reports whether e was folded from snapshots with snaps' row
// counts.
func (e *foldEntry) folded(snaps []shardSnap) bool {
	for s, sn := range snaps {
		if e.rows[s] != sn.n {
			return false
		}
	}
	return true
}

// cachedFold returns shape's fold of snaps: t's cached entry when one
// was folded from snapshots with the same row counts, else fold(), which
// is then stored in place of shape's previous entry. The caller must not
// modify the result, and fold must compute it from snaps alone.
func cachedFold[T any](t *Table, shape string, snaps []shardSnap, fold func() T) T {
	c := &t.folds
	c.mu.Lock()
	for i, e := range c.entries {
		if e.shape == shape && e.folded(snaps) {
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			c.mu.Unlock()
			return e.fold.(T)
		}
	}
	c.mu.Unlock()

	out := fold()
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
