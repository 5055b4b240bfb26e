package dpsql

import (
	"errors"
	"fmt"
	"math"
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
	// bound (valid: -1 for unbounded, or any cap >= 1).
	ErrBadGroupBound = errors.New("dpsql: group contribution bound must be -1 (unbounded) or >= 1")
)

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

// SetAccountant installs a pure-ε accountant as the ledger — the legacy
// entry point, equivalent to SetLedger(acct.Ledger()); both views share
// one budget.
func (db *DB) SetAccountant(acct *dp.Accountant) {
	db.SetLedger(acct.Ledger())
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
	// Ledger overrides the DB's installed ledger for this call — the
	// serve layer passes a per-release wrapper here so the one deduction
	// a query charges can be attributed to its release ID. Nil uses the
	// installed ledger.
	Ledger dp.Ledger
	// Observe, when set, receives per-stage wall times: "scan" (the
	// fanned shard scan, filter, group, and merge) and "noise" (the
	// per-user collapse plus every mechanism release). The deduction
	// between them is timed by the caller's ledger wrapper, not here.
	Observe func(stage string, d time.Duration)
	// ObserveShard, when set, receives one sample per shard of the
	// fanned scan: the shard index, the row count it walked, and its
	// wall time. Called from the fan-out workers, so it must be safe
	// for concurrent use. The serve layer records these as child spans
	// under "scan", which is what makes a straggler shard visible.
	ObserveShard func(shard, rows int, d time.Duration)
	// GroupBound caps how many distinct groups one user may contribute
	// to in a GROUP BY query. 0 means the default bound of 1 (groups
	// partition the users and the grouped release is priced by parallel
	// composition); c >= 1 clamps each user to its first c groups and
	// prices by c-fold sequential composition; -1 disables clamping and
	// falls back to the legacy even ε-split across groups. Ignored for
	// queries without GROUP BY. See dp.ParallelCost.
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
// c-fold sequential composition. ExecOpts.GroupBound -1 restores the
// legacy unbounded mode: no rows are dropped and the budget is split
// evenly across groups, because one user may then appear in all of them.
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

// ExecQueryTraced answers an already-parsed query — the serve layer's
// histogram endpoint and grouped estimates build Query values directly
// instead of round-tripping through SQL text. Parsing aside, it is
// ExecTraced exactly: same validation, privacy semantics, and spend.
func (db *DB) ExecQueryTraced(rng *xrand.RNG, q *Query, eps float64, opts ExecOpts) (*Result, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return nil, err
	}
	bound := opts.GroupBound
	if bound == 0 {
		bound = 1
	}
	if bound < -1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadGroupBound, opts.GroupBound)
	}
	t, err := db.TableByName(q.Table)
	if err != nil {
		return nil, err
	}
	aggIx := make([]int, len(q.Aggs))
	for i, spec := range q.Aggs {
		aggIx[i] = -1
		if spec.Kind != AggCount || spec.Col != "" {
			ix, err := t.ColumnIndex(spec.Col)
			if err != nil {
				return nil, err
			}
			if t.Columns[ix].Kind == KindString {
				return nil, fmt.Errorf("%w: %q is %s", ErrNotNumeric, spec.Col, KindString)
			}
			aggIx[i] = ix
		}
	}
	groupIx := -1
	if q.GroupBy != "" {
		groupIx, err = t.ColumnIndex(q.GroupBy)
		if err != nil {
			return nil, err
		}
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
		// data-independent). A bounded grouped query is priced by parallel
		// composition over its per-group budget eps/bound — at bound 1
		// that is exactly one release of the full eps, and at bound c the
		// honest c-fold sequential fallback; either way the total charged
		// equals the requested eps, the same as a scalar query or the
		// legacy unbounded split.
		cost := dp.EpsCost(eps)
		if groupIx >= 0 && bound >= 1 {
			cost = dp.ParallelCost(dp.EpsCost(eps/float64(bound)), bound)
		}
		if err := led.Spend(cost); err != nil {
			return nil, err
		}
	}
	observe := opts.Observe
	if observe == nil {
		observe = func(string, time.Duration) {}
	}
	scanStart := time.Now()

	// Filter and group point-in-time per-shard snapshots. The scan fans
	// out over the table's columnar shards (parallel under an installed
	// Fanout — the serve layer backs it with its worker pool): each shard
	// evaluates the WHERE predicate as one vectorized pass over its typed
	// column slices into a selection bitmap, then partitions the selected
	// row indices by group key id — a string column's dictionary code, so
	// no row hashes its key and no per-row []Value is ever built. The
	// per-shard index fragments are then concatenated in shard order.
	// Users are hash-routed to shards, so a user's rows stay contiguous
	// and in arrival order within one fragment and the per-user collapse
	// below accumulates exactly as a monolithic scan would — fan-out
	// changes wall-clock, not answers.
	type shardGroup struct {
		key  Value
		keyS string // key.String(); "" for the implicit group
		idx  []int32
	}
	var groupKind Kind
	if groupIx >= 0 {
		groupKind = t.Columns[groupIx].Kind
	}
	clamped := groupIx >= 0 && bound >= 1
	snaps := t.shardSnapshots()
	// A user whose recorded placement disagrees with the hash route
	// (possible only for hand-built imported TableStates) may have rows in
	// several shards, and per-shard clamp slots would grant it bound slots
	// per shard. Such tables take the sequential fallback below: the WHERE
	// predicate still fans out, but the clamp + group walk runs once over
	// the global arrival order.
	seqClamp := clamped && len(snaps) > 1 && t.mixedPlacement.Load()
	scans := make([][]shardGroup, len(snaps)) // per shard, first-seen order
	sels := make([][]bool, len(snaps))
	t.runFan(len(snaps), func(si int) {
		shardStart := time.Now()
		sn := snaps[si]
		var sel []bool
		if q.Where != nil {
			sel = make([]bool, sn.n)
			q.Where.evalShard(t, sn, sel)
		}
		switch {
		case seqClamp:
			sels[si] = sel
		case groupIx < 0:
			// Single implicit group: the selection is one index run.
			var idx []int32
			for i := 0; i < sn.n; i++ {
				if sel == nil || sel[i] {
					idx = append(idx, int32(i))
				}
			}
			if len(idx) > 0 {
				scans[si] = []shardGroup{{idx: idx}}
			}
		default:
			// gix[key] and the clamp slots hold group ordinal+1 (0: none).
			// Clamp slots: a user contributes to its first `bound` distinct
			// groups in its own row order; rows for any later group are
			// dropped. Hash routing keeps all of a user's rows in one shard
			// in arrival order, so the admitted set — and therefore every
			// group's user set — is identical at every shard count.
			keys, nkeys := sn.groupKeys(groupKind, groupIx, sel)
			gix := make([]int32, nkeys)
			var slots []int32
			if clamped {
				slots = make([]int32, sn.nu*bound)
			}
			var groups []shardGroup
			newGroup := func(i int) int32 {
				key := sn.value(groupKind, groupIx, i)
				groups = append(groups, shardGroup{key: key, keyS: key.String()})
				gix[keys[i]] = int32(len(groups))
				return int32(len(groups))
			}
			for i := 0; i < sn.n; i++ {
				if sel != nil && !sel[i] {
					continue
				}
				g := gix[keys[i]]
				if clamped {
					us := slots[int(sn.uix[i])*bound : (int(sn.uix[i])+1)*bound]
					admitted, free := false, -1
					for s, v := range us {
						if g > 0 && v == g {
							admitted = true
							break
						}
						if v == 0 && free < 0 {
							free = s
						}
					}
					if !admitted {
						if free < 0 {
							continue // cap reached: drop the row
						}
						if g == 0 {
							g = newGroup(i)
						}
						us[free] = g
					}
				} else if g == 0 {
					g = newGroup(i)
				}
				groups[g-1].idx = append(groups[g-1].idx, int32(i))
			}
			scans[si] = groups
		}
		if opts.ObserveShard != nil {
			opts.ObserveShard(si, sn.n, time.Since(shardStart))
		}
	})
	observe("scan", time.Since(scanStart))

	// Merge the per-shard partial group lists map-free: concatenate them in
	// shard order, stable-sort by key (stability keeps each group's shard
	// fragments in shard order), and fold equal-key runs into one group.
	// The output lands directly in the released sorted-key order.
	type groupSel struct {
		key   Value
		keyS  string
		parts []selPart // one per contributing shard, in shard order
	}
	mergeStart := time.Now()
	var flat []groupSel
	if seqClamp {
		// Global arrival-order clamp walk: the k-way merge on sequence
		// numbers visits rows exactly as a single-shard table stores them,
		// so admitted sets match the single-shard twin bit for bit even for
		// users whose rows straddle shards. Sequential by construction —
		// the price of honoring hand-built placements.
		type seqGroup struct {
			key Value
			idx [][]int32 // per shard, row indices in row order
		}
		gm := map[string]*seqGroup{}
		var order []string
		admitted := map[string][]string{} // uid -> admitted group keys (<= bound)
		mergeOrder(snaps, func(s, i int) {
			if sels[s] != nil && !sels[s][i] {
				return
			}
			sn := snaps[s]
			key := sn.value(groupKind, groupIx, i).String()
			uid := sn.uid(i)
			in := false
			for _, k := range admitted[uid] {
				if k == key {
					in = true
					break
				}
			}
			if !in {
				if len(admitted[uid]) >= bound {
					return // cap reached: drop the row
				}
				admitted[uid] = append(admitted[uid], key)
			}
			g, ok := gm[key]
			if !ok {
				g = &seqGroup{key: sn.value(groupKind, groupIx, i), idx: make([][]int32, len(snaps))}
				gm[key] = g
				order = append(order, key)
			}
			g.idx[s] = append(g.idx[s], int32(i))
		})
		for _, key := range order {
			g := gm[key]
			gs := groupSel{key: g.key, keyS: key}
			for s, idx := range g.idx {
				if len(idx) > 0 {
					gs.parts = append(gs.parts, selPart{shard: s, idx: idx})
				}
			}
			flat = append(flat, gs)
		}
	} else {
		for si, sgs := range scans {
			for _, sg := range sgs {
				flat = append(flat, groupSel{key: sg.key, keyS: sg.keyS, parts: []selPart{{shard: si, idx: sg.idx}}})
			}
		}
	}
	sort.SliceStable(flat, func(a, b int) bool { return flat[a].keyS < flat[b].keyS })
	groups := make([]groupSel, 0, len(flat))
	for _, g := range flat {
		if n := len(groups); n > 0 && groups[n-1].keyS == g.keyS {
			groups[n-1].parts = append(groups[n-1].parts, g.parts...)
			continue
		}
		groups = append(groups, g)
	}
	if groupIx >= 0 {
		observe("group_merge", time.Since(mergeStart))
	}
	if len(groups) == 0 {
		// No matching rows: release an empty result (the absence of public
		// group keys reveals only the public category list).
		return &Result{Query: q, EpsSpent: eps}, nil
	}

	// Per-group budget. With a contribution bound every group receives the
	// full per-partition budget eps/bound (then split across the SELECT
	// list's aggregates by basic composition) no matter how many groups
	// exist — the parallel-composition payoff. The legacy unbounded mode
	// (GroupBound -1) splits eps evenly across the k released groups,
	// because an unclamped user may appear in all of them.
	var epsG float64
	if clamped {
		epsG = eps / float64(bound) / float64(len(q.Aggs))
	} else {
		epsG = eps / float64(len(groups)) / float64(len(q.Aggs))
	}
	noiseStart := time.Now()
	defer func() { observe("noise", time.Since(noiseStart)) }()
	res := &Result{Query: q, EpsSpent: eps}
	ord := t.userOrder(snaps)
	acc := make([]userAgg, len(ord.ids)) // every collapse's scratch, zeroed between uses
	for _, g := range groups {
		values := make([]float64, len(q.Aggs))
		for i, spec := range q.Aggs {
			users := t.collapseSelection(ord, snaps, g.parts, aggIx[i], acc)
			v, err := aggregate(rng, spec, users, epsG)
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

// aggregate releases the requested aggregate with budget eps over a
// group's per-user contributions (the shared replace-one-user reduction,
// Table.collapseSelection).
func aggregate(rng *xrand.RNG, spec AggSpec, users []userAgg, eps float64) (float64, error) {
	nUsers := len(users)

	if spec.Kind == AggCount {
		// Count of matching users; sensitivity 1 under a one-user change.
		return dp.NoisyCount(rng, nUsers, eps), nil
	}
	if nUsers < 4 {
		return 0, ErrTooFewUsers
	}

	sums := make([]float64, 0, nUsers)
	means := make([]float64, 0, nUsers)
	for _, u := range users {
		sums = append(sums, u.sum)
		means = append(means, u.sum/float64(u.count))
	}

	const beta = 0.1
	switch spec.Kind {
	case AggSum:
		// SUM = n_users · mean(per-user sums); n_users is fixed across
		// replace-one-user neighbors, so only the mean needs privatizing.
		m, err := privateMeanAuto(rng, sums, eps, beta)
		if err != nil {
			return 0, err
		}
		return m * float64(nUsers), nil
	case AggAvg:
		return privateMeanAuto(rng, means, eps, beta)
	case AggMedian:
		return privateQuantileAuto(rng, means, (nUsers+1)/2, eps, beta)
	case AggP25:
		return privateQuantileAuto(rng, means, (nUsers+3)/4, eps, beta)
	case AggP75:
		return privateQuantileAuto(rng, means, (3*nUsers+3)/4, eps, beta)
	case AggVar:
		return core.EstimateVariance(rng, means, eps, beta)
	case AggStdDev:
		v, err := core.EstimateVariance(rng, means, eps, beta)
		if err != nil {
			return 0, err
		}
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v), nil
	case AggIQR:
		v, err := core.EstimateIQR(rng, means, eps, beta)
		if err != nil {
			return 0, err
		}
		// A scale parameter is non-negative; the raw release can be
		// negative at small budgets (difference of two noisy quantiles),
		// and projection is free post-processing.
		if v < 0 {
			v = 0
		}
		return v, nil
	case AggQuantile:
		tau := int(math.Ceil(spec.P * float64(nUsers)))
		if tau < 1 {
			tau = 1
		}
		if tau > nUsers {
			tau = nUsers
		}
		return privateQuantileAuto(rng, means, tau, eps, beta)
	case AggMin:
		// Extreme quantiles: Algorithm 2 clamps the target rank away from
		// the boundary by its slack, so MIN/MAX are conservative — they
		// release roughly the slack-th smallest/largest per-user value.
		// (An exact private min/max is impossible with bounded error.)
		return privateQuantileAuto(rng, means, 1, eps, beta)
	case AggMax:
		return privateQuantileAuto(rng, means, nUsers, eps, beta)
	default:
		return 0, fmt.Errorf("%w: unsupported aggregate %v", ErrSyntax, spec.Kind)
	}
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

// privateQuantileAuto releases the tau-th order statistic of contributions
// with no domain bound (bucket ε/2, quantile ε/2).
func privateQuantileAuto(rng *xrand.RNG, xs []float64, tau int, eps, beta float64) (float64, error) {
	b, err := core.IQRLowerBound(rng, xs, eps/2, beta/2)
	if err != nil {
		return 0, err
	}
	bn := b / float64(len(xs))
	if !(bn > 0) {
		bn = math.SmallestNonzeroFloat64
	}
	return empirical.RealQuantile(rng, xs, tau, bn, eps/2, beta/2)
}
