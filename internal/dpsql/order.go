package dpsql

import "sort"

// userOrder is a table's cached user-id order: every user of every
// shard's dictionary gets a rank, its position in ids, and collapses read
// rank-indexed accumulators out in rank order, so no release sorts users. Equal
// ids in different shards (a straddling hand-built placement) share a
// rank. An order is immutable once published and covers a prefix of each
// shard's append-only dictionary, so it also serves any snapshot it
// covers.
type userOrder struct {
	ids  []string  // distinct user ids, ascending
	rank [][]int32 // rank[s][u]: rank of shard s's dictionary user u
}

// covers reports whether o ranks every dictionary user of the snapshots.
func (o *userOrder) covers(snaps []shardSnap) bool {
	for s, sn := range snaps {
		if len(o.rank[s]) < sn.nu {
			return false
		}
	}
	return true
}

// userOrder returns the cached order if it covers the snapshots, else
// extends it (once, under orderMu) and publishes the result.
func (t *Table) userOrder(snaps []shardSnap) *userOrder {
	o := t.order.Load()
	if o.covers(snaps) {
		return o
	}
	t.orderMu.Lock()
	defer t.orderMu.Unlock()
	if o = t.order.Load(); !o.covers(snaps) {
		o = o.extend(snaps)
		t.order.Store(o)
	}
	return o
}

// extend returns o plus the snapshots' dictionary users it lacks: only
// the newcomers are sorted, then merged into o's order by binary search,
// so each old rank shifts right by the newcomers placed before it.
func (o *userOrder) extend(snaps []shardSnap) *userOrder {
	type newUser struct {
		id       string
		shard, u int32
	}
	var add []newUser
	for s, sn := range snaps {
		for u := len(o.rank[s]); u < sn.nu; u++ {
			add = append(add, newUser{sn.uids[u], int32(s), int32(u)})
		}
	}
	sort.Slice(add, func(a, b int) bool { return add[a].id < add[b].id })

	ids := make([]string, 0, len(o.ids)+len(add))
	shift := make([]int32, len(o.ids)) // old rank -> new rank
	added := make([]int32, len(add))   // newcomer -> rank
	i := 0
	keep := func(end int) {
		for ; i < end; i++ {
			shift[i] = int32(len(ids))
			ids = append(ids, o.ids[i])
		}
	}
	for j := 0; j < len(add); {
		id := add[j].id
		keep(i + sort.SearchStrings(o.ids[i:], id))
		r := int32(len(ids))
		if i < len(o.ids) && o.ids[i] == id { // already ranked via another shard
			shift[i] = r
			i++
		}
		ids = append(ids, id)
		for ; j < len(add) && add[j].id == id; j++ {
			added[j] = r
		}
	}
	keep(len(o.ids))

	rank := make([][]int32, len(snaps))
	for s, sn := range snaps {
		rs := make([]int32, max(len(o.rank[s]), sn.nu))
		for u, r := range o.rank[s] {
			rs[u] = shift[r]
		}
		rank[s] = rs
	}
	for j, a := range add {
		rank[a.shard][a.u] = added[j]
	}
	return &userOrder{ids: ids, rank: rank}
}
