package dpsql

import "sort"

// userOrder is a table's cached user-id order: every user of every
// shard's dictionary gets a rank, its position in ids, and who maps each
// rank back to its dictionary entry, so a release places per-user
// accumulators in rank order by one walk over who and no release sorts
// users. A user lives in one shard, so each rank belongs to one
// dictionary entry. An order is immutable once published and covers a
// prefix of each shard's append-only dictionary (nu[s] users of shard s),
// so it also serves any snapshot it covers; a walk over an older
// snapshot skips the entries at or past that snapshot's nu.
type userOrder struct {
	ids []string  // distinct user ids, ascending
	who []userRef // who[r]: the dictionary entry whose id is ids[r]
	nu  []int     // nu[s]: the prefix of shard s's dictionary ranked
}

// userRef names one dictionary user: shard s's entry u.
type userRef struct{ shard, u int32 }

// covers reports whether o ranks every dictionary user of the snapshots.
func (o *userOrder) covers(snaps []shardSnap) bool {
	for s, sn := range snaps {
		if o.nu[s] < sn.nu {
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
// the newcomers are sorted, then merged into o's order by binary search.
// A newcomer is new to every shard, since all of a user's rows share one.
func (o *userOrder) extend(snaps []shardSnap) *userOrder {
	type newUser struct {
		id string
		userRef
	}
	var add []newUser
	nu := make([]int, len(snaps))
	for s, sn := range snaps {
		for u := o.nu[s]; u < sn.nu; u++ {
			add = append(add, newUser{sn.uids[u], userRef{int32(s), int32(u)}})
		}
		nu[s] = max(o.nu[s], sn.nu)
	}
	sort.Slice(add, func(a, b int) bool { return add[a].id < add[b].id })

	ids := make([]string, 0, len(o.ids)+len(add))
	who := make([]userRef, 0, len(o.ids)+len(add))
	i := 0
	keep := func(end int) {
		ids, who = append(ids, o.ids[i:end]...), append(who, o.who[i:end]...)
		i = end
	}
	for _, a := range add {
		keep(i + sort.SearchStrings(o.ids[i:], a.id))
		ids, who = append(ids, a.id), append(who, a.userRef)
	}
	keep(len(o.ids))
	return &userOrder{ids: ids, who: who, nu: nu}
}
