package dpsql

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/empirical"
	"repro/internal/xrand"
)

// Execution errors.
var (
	// ErrTooFewUsers reports a group with fewer users than the universal
	// estimators require.
	ErrTooFewUsers = errors.New("dpsql: group has too few users (need >= 4)")
	// ErrNotNumeric reports aggregation over a non-numeric column.
	ErrNotNumeric = errors.New("dpsql: aggregate column must be numeric")
	// ErrBadGroupBound reports an invalid per-user group contribution
	// bound (valid: 0, meaning the default of 1, or any cap >= 1).
	ErrBadGroupBound = errors.New("dpsql: group contribution bound must be >= 1 (0 means 1)")
)

// CheckGroupBound validates a per-user group contribution bound and
// returns it in canonical form: 0, the default, becomes 1. Every caller
// that takes a bound from outside validates it here, so equal releases
// spell their bound alike (the serve layer keys its response cache on
// the canonical value).
func CheckGroupBound(bound int) (int, error) {
	switch {
	case bound == 0:
		return 1, nil
	case bound < 0:
		return 0, fmt.Errorf("%w: got %d", ErrBadGroupBound, bound)
	}
	return bound, nil
}

// ResultRow is one released result row (per group when GROUP BY is
// present). Values holds one release per aggregate in the SELECT list;
// Value mirrors Values[0] for the common single-aggregate case.
type ResultRow struct {
	Group    Value // group key (zero Value when the query has no GROUP BY)
	HasGroup bool
	Value    float64
	Values   []float64
}

// Result is a released query answer.
type Result struct {
	Query    *Query
	Rows     []ResultRow
	EpsSpent float64
}

// SetBudget installs a total privacy budget enforced across Exec calls
// (basic composition of pure ε, Lemma 2.2). A nil-budget DB never refuses
// queries. For a different composition backend use SetLedger.
func (db *DB) SetBudget(totalEps float64) error {
	led, err := dp.NewBasicLedger(totalEps)
	if err != nil {
		return err
	}
	db.SetLedger(led)
	return nil
}

// SetLedger installs a composition backend enforced across Exec calls,
// letting several release paths (e.g. a tenant's SQL queries and its
// direct estimator calls in the serve layer) draw from one budget. The
// backend decides how ε costs compose: dp.BasicLedger adds them linearly,
// dp.ZCDPLedger charges ε²/2 in ρ, dp.WindowedLedger renews any inner
// budget on a wall-clock cadence.
func (db *DB) SetLedger(led dp.Ledger) {
	db.mu.Lock()
	db.led = led
	db.mu.Unlock()
}

// Ledger returns the installed composition backend (nil when no budget is
// set).
func (db *DB) Ledger() dp.Ledger {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.led
}

// Remaining reports the unspent budget in the ledger's native unit; +Inf
// when no budget is set.
func (db *DB) Remaining() float64 {
	led := db.Ledger()
	if led == nil {
		return math.Inf(1)
	}
	return led.Remaining()
}

// ExecOpts carries the per-call knobs of ExecTraced. The zero value
// reproduces Exec exactly.
type ExecOpts struct {
	// Ledger overrides the DB's installed ledger for this call: the one
	// deduction a query charges is its Spend, the only method Exec
	// calls. The serve layer passes its per-release ledger here, so the
	// charge belongs to the release and is audited with it; any
	// dp.Ledger also fits. Nil uses the installed ledger.
	Ledger interface{ Spend(dp.Cost) error }
	// Observe, when set, receives per-stage wall times: "scan" (the
	// fanned shard scan: filter, clamp, and the fold of each user's rows;
	// for an ungrouped query also the placement of the folds in user-id
	// order), "group_merge" (grouped queries only: the merge of the
	// shards' groups and that placement) and "noise" (every mechanism
	// release). A release served from the table's fold cache still
	// reports "scan" (the snapshot and the lookup) and, when grouped, a
	// near-zero "group_merge". The deduction before them is timed by the
	// caller's ledger wrapper, not here.
	Observe func(stage string, d time.Duration)
	// ObserveShard, when set, receives one sample per shard of the
	// fanned scan: the shard index, the row count it walked, and its
	// wall time. Called from the fan-out workers, so it must be safe
	// for concurrent use. The serve layer records these as child spans
	// under "scan", which is what makes a straggler shard visible. A
	// release served from the fold cache scans no shard and reports
	// no sample.
	ObserveShard func(shard, rows int, d time.Duration)
	// GroupBound caps how many distinct groups one user may contribute
	// to in a GROUP BY query. 0 means the default bound of 1 (groups
	// partition the users and the grouped release is priced by parallel
	// composition); c >= 1 clamps each user to its first c groups and
	// prices by c-fold sequential composition. A negative bound fails
	// with ErrBadGroupBound (see CheckGroupBound). Ignored for queries
	// without GROUP BY. See dp.ParallelCost.
	GroupBound int
}

// Exec parses and answers sql under user-level eps-DP.
//
// Privacy semantics: the privacy unit is one user (the table's user
// column); neighboring databases replace all rows of one user. Row sets are
// first collapsed to one contribution per user (sum for SUM, mean for the
// location aggregates), then released through the repository's universal
// estimators, which need no bound on per-user contributions — the §1.1.1
// (DFY+22) application. GROUP BY keys are released as-is and must be public
// categories. Grouped releases are priced by parallel composition
// (dp.ParallelCost): during the scan each user is clamped to its
// first-seen group (contribution bound 1 by default, configurable via
// ExecOpts.GroupBound), so groups are disjoint in users and the whole
// grouped answer costs ONE release at the full ε — not ε/k per group. A
// bound c > 1 keeps per-group accuracy at ε/c and charges the honest
// c-fold sequential composition. Every grouped release is clamped: the
// per-group budget never depends on how many groups the data holds.
func (db *DB) Exec(rng *xrand.RNG, sql string, eps float64) (*Result, error) {
	return db.ExecTraced(rng, sql, eps, ExecOpts{})
}

// ExecTraced is Exec with an optional ledger override and per-stage
// timing callback — identical parsing, privacy semantics, and spend.
func (db *DB) ExecTraced(rng *xrand.RNG, sql string, eps float64, opts ExecOpts) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecQueryTraced(rng, q, eps, opts)
}

// ExecQueryTraced answers an already-parsed query — the serve layer
// parses a /query statement once (its cache key depends on whether the
// query groups), and its histogram endpoint and grouped estimates build
// Query values directly instead of round-tripping through SQL text.
// Parsing aside, it is ExecTraced exactly: same validation, privacy
// semantics, and spend.
func (db *DB) ExecQueryTraced(rng *xrand.RNG, q *Query, eps float64, opts ExecOpts) (*Result, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return nil, err
	}
	bound, err := CheckGroupBound(opts.GroupBound)
	if err != nil {
		return nil, err
	}
	t, err := db.TableByName(q.Table)
	if err != nil {
		return nil, err
	}
	// cols lists the distinct columns the non-COUNT aggregates fold, and
	// ins the distinct per-user inputs they read: SUM a column's per-user
	// sums, every other aggregate its per-user means. aggIn maps each
	// aggregate to its input (-1: COUNT, which reads the scan's per-group
	// user count alone); aggregates that read one input share its slice,
	// since the estimators only read theirs.
	var cols []int
	var ins []foldInput
	aggIn := make([]int, len(q.Aggs))
	for i, spec := range q.Aggs {
		aggIn[i] = -1
		if spec.Kind == AggCount && spec.Col == "" {
			continue
		}
		ix, err := t.ColumnIndex(spec.Col)
		if err != nil {
			return nil, err
		}
		if t.Columns[ix].Kind == KindString {
			return nil, fmt.Errorf("%w: %q is %s", ErrNotNumeric, spec.Col, KindString)
		}
		if spec.Kind == AggCount {
			continue
		}
		c := slices.Index(cols, ix)
		if c < 0 {
			c = len(cols)
			cols = append(cols, ix)
		}
		in := foldInput{col: c, mean: spec.Kind != AggSum}
		if aggIn[i] = slices.Index(ins, in); aggIn[i] < 0 {
			aggIn[i] = len(ins)
			ins = append(ins, in)
		}
	}
	groupIx := -1
	if q.GroupBy != "" {
		groupIx, err = t.ColumnIndex(q.GroupBy)
		if err != nil {
			return nil, err
		}
	} else {
		bound = 1 // an ungrouped query is one group: the bound means nothing
	}
	if q.Where != nil {
		// Static WHERE check (columns exist, kinds comparable) before the
		// Spend below: a data-independent mistake must not cost budget.
		if err := q.Where.validate(t); err != nil {
			return nil, err
		}
	}

	led := opts.Ledger
	if led == nil {
		led = db.Ledger()
	}
	if led != nil {
		// One deduction per release, charged before the scan (the price is
		// data-independent). A grouped query is priced by parallel
		// composition over its per-group budget eps/bound — at bound 1
		// that is exactly one release of the full eps, and at bound c the
		// honest c-fold sequential fallback; either way the total charged
		// equals the requested eps, the same as a scalar query.
		cost := dp.ParallelCost(dp.EpsCost(eps/float64(bound)), bound)
		if err := led.Spend(cost); err != nil {
			return nil, err
		}
	}
	observe := opts.Observe
	if observe == nil {
		observe = func(string, time.Duration) {}
	}
	scanStart := time.Now()
	snaps := t.shardSnapshots()
	var mergeStart time.Time
	endScan := func() {
		mergeStart = time.Now()
		if groupIx >= 0 {
			observe("scan", mergeStart.Sub(scanStart))
		}
	}
	fold := func() []groupFold {
		scans := t.scanShards(snaps, q.Where, groupIx, bound, cols, opts.ObserveShard)
		endScan()
		return t.mergeGroups(snaps, scans, bound, len(cols), ins)
	}
	var groups []groupFold
	if q.Where != nil {
		groups = fold() // never cached: the predicate space is unbounded
	} else {
		groups = cachedFold(t, fmt.Sprintf("sql g%d b%d c%v i%v", groupIx, bound, cols, ins), snaps, fold)
	}
	if mergeStart.IsZero() {
		endScan() // a cache hit: the lookup was the scan, and nothing merges
	}
	if groupIx >= 0 {
		observe("group_merge", time.Since(mergeStart))
	} else {
		observe("scan", time.Since(scanStart))
	}
	if len(groups) == 0 {
		// No matching rows: release an empty result (the absence of public
		// group keys reveals only the public category list).
		return &Result{Query: q, EpsSpent: eps}, nil
	}

	// Per-group budget: every group receives the full per-partition budget
	// eps/bound (then split across the SELECT list's aggregates by basic
	// composition) no matter how many groups exist — the
	// parallel-composition payoff.
	epsG := eps / float64(bound) / float64(len(q.Aggs))
	noiseStart := time.Now()
	defer func() { observe("noise", time.Since(noiseStart)) }()
	res := &Result{Query: q, EpsSpent: eps, Rows: make([]ResultRow, 0, len(groups))}
	for _, g := range groups {
		values := make([]float64, len(q.Aggs))
		for i, spec := range q.Aggs {
			var xs []float64
			if in := aggIn[i]; in >= 0 {
				xs = g.xs[in]
			}
			v, err := aggregate(rng, spec, g.users, xs, epsG)
			if err != nil {
				return nil, fmt.Errorf("group %q: %w", g.keyS, err)
			}
			values[i] = v
		}
		res.Rows = append(res.Rows, ResultRow{
			Group:    g.key,
			HasGroup: groupIx >= 0,
			Value:    values[0],
			Values:   values,
		})
	}
	return res, nil
}

// shardScan is one shard's share of a release scan: its groups in
// first-seen order, and for each of its users the groups admitted under
// the clamp with one accumulator per (user, admitted group) and folded
// column.
type shardScan struct {
	groups []scanGroup
	// slots[u*bound+j] is the ordinal+1 of user u's j-th admitted group
	// (0: free). A user's slots fill in order and are never freed, so its
	// admitted groups are the slots before the first 0.
	slots []int32
	// accs[(u*bound+j)*len(cols)+c] is the fold of cols[c] over the rows
	// of that (user, slot) pair: a pair's folds sit side by side.
	accs []userAgg
}

// scanGroup is one group of a release: its key, and the users admitted
// to it (in one shard's scan, or, once merged, in all of them).
type scanGroup struct {
	key   Value
	keyS  string // key.String(); "" for the implicit group
	users int
}

// scanShards filters, clamps and folds point-in-time shard snapshots, one
// job per shard under the table's fan-out (parallel under an installed
// Fanout — the serve layer backs it with its worker pool). Each shard
// evaluates the WHERE predicate as one vectorized pass over its typed
// column slices into a selection bitmap, then walks the selected rows
// once in row (= arrival) order. The clamp admits a user to its first
// bound distinct groups in its own row order and drops its rows for any
// later group. An admitted row is folded straight into the dense
// shard-local accumulator of its (user, slot) pair for each column in
// cols. groupIx < 0 is the ungrouped release: one implicit group, and
// the bound is 1. Group keys are numbered without hashing a row (a
// string column's dictionary codes), and no per-row []Value is built.
//
// Users are hash-routed to shards, so all of a user's rows sit in one
// shard in arrival order: the admitted set — and therefore every group's
// user set — and each accumulator are what a monolithic scan yields, bit
// for bit, at every shard count.
func (t *Table) scanShards(snaps []shardSnap, where Expr, groupIx, bound int, cols []int, observe func(shard, rows int, d time.Duration)) []shardScan {
	var groupKind Kind
	if groupIx >= 0 {
		groupKind = t.Columns[groupIx].Kind
	}
	kinds := make([]Kind, len(cols))
	for c, ix := range cols {
		kinds[c] = t.Columns[ix].Kind
	}
	// The selection, the slots and the folds each take one array per
	// release, and every shard gets its own window of each before the fan
	// starts.
	users, rows := 0, 0
	for _, sn := range snaps {
		users, rows = users+sn.nu, rows+sn.n
	}
	var sels []bool
	if where != nil {
		sels = make([]bool, rows)
	}
	slots := make([]int32, users*bound)
	accs := make([]userAgg, users*bound*len(cols))
	scans := make([]shardScan, len(snaps))
	for si, sn := range snaps {
		w := sn.nu * bound
		scans[si].slots, slots = slots[:w:w], slots[w:]
		scans[si].accs, accs = accs[:w*len(cols):w*len(cols)], accs[w*len(cols):]
	}
	t.runFan(len(snaps), func(si int) {
		shardStart := time.Now()
		sn, sc := snaps[si], &scans[si]
		var sel []bool
		if where != nil {
			off := 0
			for _, prev := range snaps[:si] {
				off += prev.n
			}
			sel = sels[off : off+sn.n : off+sn.n]
			where.evalShard(t, sn, sel)
		}
		var keys []int32 // nil: every row has key id 0
		nkeys := 1
		if groupIx >= 0 {
			keys, nkeys = sn.groupKeys(groupKind, groupIx, sel)
		}
		gix := make([]int32, nkeys) // key id -> group ordinal+1 (0: unseen)
		for i := 0; i < sn.n; i++ {
			if sel != nil && !sel[i] {
				continue
			}
			var k int32
			if keys != nil {
				k = keys[i]
			}
			g := gix[k]
			base := int(sn.uix[i]) * bound
			j := 0
			for j < bound && sc.slots[base+j] != 0 && sc.slots[base+j] != g {
				j++
			}
			if j == bound {
				continue // cap reached: drop the row
			}
			if sc.slots[base+j] == 0 { // admit the user to the row's group
				if g == 0 {
					var sg scanGroup
					if groupIx >= 0 {
						sg.key = sn.value(groupKind, groupIx, i)
						sg.keyS = sg.key.String()
					}
					sc.groups = append(sc.groups, sg)
					g = int32(len(sc.groups))
					gix[k] = g
				}
				sc.slots[base+j] = g
				sc.groups[g-1].users++
			}
			acc := sc.accs[(base+j)*len(cols):]
			for c, ix := range cols {
				a := &acc[c]
				// A NaN row replaces the sum: which NaN sum + x yields
				// when both are NaN depends on the operand order the
				// compiler picks, and a NaN release shows those bits,
				// so the fold pins x's.
				if x := sn.float(kinds[c], ix, i); x == x {
					a.sum += x
				} else {
					a.sum = x
				}
				a.count++
			}
		}
		if observe != nil {
			observe(si, sn.n, time.Since(shardStart))
		}
	})
	return scans
}

// foldInput is one per-user slice the released aggregates read: the
// per-user sums of cols[col] (SUM), or its per-user means (mean set;
// every other aggregate).
type foldInput struct {
	col  int
	mean bool
}

// groupFold is one released group's input: its key, its user count, and
// per foldInput the group's per-user values in user-id order.
type groupFold struct {
	scanGroup
	xs [][]float64
}

// mergeGroups merges the shard scans into the released groups, in
// sorted-key order, and writes each (user, slot) pair's value of every
// input in ins, read from its accumulators of the ncols folded columns,
// into its group's output. The group lists merge map-free: listed in
// shard order, stable-sorted by key, equal-key runs folded into one
// group, each shard-local ordinal mapped to its group. One walk over the
// users in rank order then writes the values, so each group's
// contributions come out in user-id order with no sort, no per-group pass
// and no copy between the accumulators and the floats the estimators
// read. This is the replace-one-user privacy reduction every release
// path shares: each group's input changes in one position between
// neighboring databases, so feeding it to a record-level eps-DP
// mechanism yields a user-level eps-DP release. The order matters beyond
// reproducibility: the estimators' pairing/subsampling consume the
// seeded RNG in input order.
func (t *Table) mergeGroups(snaps []shardSnap, scans []shardScan, bound, ncols int, ins []foldInput) []groupFold {
	type localGroup struct{ shard, g int }
	var flat []localGroup
	gmap := make([][]int32, len(scans)) // gmap[s][g]: shard s's group g's merged index
	for s, sc := range scans {
		gmap[s] = make([]int32, len(sc.groups))
		for g := range sc.groups {
			flat = append(flat, localGroup{s, g})
		}
	}
	keyOf := func(l localGroup) string { return scans[l.shard].groups[l.g].keyS }
	sort.SliceStable(flat, func(a, b int) bool { return keyOf(flat[a]) < keyOf(flat[b]) })
	var groups []groupFold
	for _, l := range flat {
		sg := scans[l.shard].groups[l.g]
		if n := len(groups); n == 0 || groups[n-1].keyS != sg.keyS {
			groups = append(groups, groupFold{scanGroup: scanGroup{key: sg.key, keyS: sg.keyS}})
		}
		groups[len(groups)-1].users += sg.users
		gmap[l.shard][l.g] = int32(len(groups) - 1)
	}
	if len(ins) == 0 || len(groups) == 0 {
		return groups
	}

	// Each group's slices are carved from one backing array and filled
	// front to back through next[G].
	total := 0
	for _, g := range groups {
		total += g.users
	}
	backing := make([]float64, total*len(ins))
	heads := make([][]float64, len(groups)*len(ins))
	for G := range groups {
		groups[G].xs = heads[G*len(ins) : (G+1)*len(ins)]
		for i := range ins {
			n := groups[G].users
			groups[G].xs[i], backing = backing[:n:n], backing[n:]
		}
	}
	next := make([]int, len(groups))
	for _, w := range t.userOrder(snaps).who {
		if int(w.u) >= snaps[w.shard].nu {
			continue // joined after this snapshot
		}
		sc := &scans[w.shard]
		base := int(w.u) * bound
		for j := base; j < base+bound && sc.slots[j] != 0; j++ {
			G := gmap[w.shard][sc.slots[j]-1]
			acc := sc.accs[j*ncols : (j+1)*ncols]
			for i, in := range ins {
				a := acc[in.col]
				x := a.sum
				if in.mean {
					x /= float64(a.count)
				}
				groups[G].xs[i][next[G]] = x
			}
			next[G]++
		}
	}
	return groups
}

// aggregate releases the requested aggregate with budget eps over a
// group of nUsers users. xs holds the users' contributions in user-id
// order, as mergeGroups wrote them: per-user sums for SUM, per-user means
// for every other aggregate but COUNT, which privatizes nUsers alone and
// reads no xs. aggregate only reads xs, so aggregates of one input share
// it.
func aggregate(rng *xrand.RNG, spec AggSpec, nUsers int, xs []float64, eps float64) (float64, error) {
	if spec.Kind == AggCount {
		// Count of matching users; sensitivity 1 under a one-user change.
		return dp.NoisyCount(rng, nUsers, eps), nil
	}
	if nUsers < 4 {
		return 0, ErrTooFewUsers
	}

	const beta = 0.1
	switch spec.Kind {
	case AggSum:
		// SUM = n_users · mean(per-user sums); n_users is fixed across
		// replace-one-user neighbors, so only the mean needs privatizing.
		m, err := privateMeanAuto(rng, xs, eps, beta)
		if err != nil {
			return 0, err
		}
		return m * float64(nUsers), nil
	case AggAvg:
		return privateMeanAuto(rng, xs, eps, beta)
	case AggMedian:
		return core.EstimateQuantile(rng, xs, (nUsers+1)/2, eps, beta)
	case AggP25:
		return core.EstimateQuantile(rng, xs, (nUsers+3)/4, eps, beta)
	case AggP75:
		return core.EstimateQuantile(rng, xs, (3*nUsers+3)/4, eps, beta)
	case AggVar:
		return nonNeg(core.EstimateVariance(rng, xs, eps, beta))
	case AggStdDev:
		v, err := nonNeg(core.EstimateVariance(rng, xs, eps, beta))
		if err != nil {
			return 0, err
		}
		return math.Sqrt(v), nil
	case AggIQR:
		return nonNeg(core.EstimateIQR(rng, xs, eps, beta))
	case AggQuantile:
		tau := int(math.Ceil(spec.P * float64(nUsers)))
		if tau < 1 {
			tau = 1
		}
		if tau > nUsers {
			tau = nUsers
		}
		return core.EstimateQuantile(rng, xs, tau, eps, beta)
	case AggMin:
		// Extreme quantiles: Algorithm 2 clamps the target rank away from
		// the boundary by its slack, so MIN/MAX are conservative — they
		// release roughly the slack-th smallest/largest per-user value.
		// (An exact private min/max is impossible with bounded error.)
		return core.EstimateQuantile(rng, xs, 1, eps, beta)
	case AggMax:
		return core.EstimateQuantile(rng, xs, nUsers, eps, beta)
	default:
		return 0, fmt.Errorf("%w: unsupported aggregate %v", ErrSyntax, spec.Kind)
	}
}

// nonNeg projects a scale release onto [0, ∞), passing errors through.
// A scale parameter is non-negative; the raw release can be negative at
// small budgets (a noisy difference), and projection is free
// post-processing.
func nonNeg(v float64, err error) (float64, error) {
	if v < 0 {
		v = 0
	}
	return v, err
}

// privateMeanAuto releases the empirical mean of contributions with no
// domain bound: Algorithm 7 learns a bucket (ε/4), then the §3.5
// infinite-domain mean runs with the rest (3ε/4).
func privateMeanAuto(rng *xrand.RNG, xs []float64, eps, beta float64) (float64, error) {
	b, err := core.IQRLowerBound(rng, xs, eps/4, beta/2)
	if err != nil {
		return 0, err
	}
	if !(b > 0) {
		b = math.SmallestNonzeroFloat64
	}
	return empirical.RealMean(rng, xs, b, 3*eps/4, beta/2)
}
