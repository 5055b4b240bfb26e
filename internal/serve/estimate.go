package serve

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/internal/empirical"
	"repro/internal/xrand"
	"repro/updp"
)

// This file is the estimator release: what one /estimate release runs
// on its worker — the grouped form through the grouped SQL executor, the
// scalar form as the shard-fanned contribution scan, the single budget
// deduction, and the stat dispatch onto the universal estimators. The
// handler and the lifecycle around it (cache, worker, audit) live in
// handlers.go; validation lives in decode.go.

// estimate runs one validated, canonicalized /estimate release on a
// worker and returns its answer. A grouped estimate releases the
// statistic once per group of the group_by column through the grouped
// SQL executor — bounded per-user group contributions, one
// parallel-composed deduction, the same scan fan-out and stage spans a
// grouped query gets. A scalar estimate pulls its contributions from
// tab, charges led, and runs the stat's estimator. Either way the
// charge sticks once made, even if the mechanism then fails.
//
// Sharded scan: the scalar contribution pull fans out over the table's
// shards (dpsql readers run per-shard partial scans through the server's
// worker pool — see DB.SetFanout) and merges the partial per-user
// aggregates before anything else happens. The merge is pure
// reorganization of already-collapsed per-user summaries, so exactly one
// deduction is charged per release and the mechanism sees bit-for-bit the
// input a monolithic table would have produced — shard count changes
// wall-clock, never noise semantics or spend. The table caches the
// merged per-user input against its shards' row counts, so a release
// over a table no row has reached since an earlier same-column release
// reads that input without a fan (and its scan span has no per-shard
// children); the input, and so the answer, is the same either way. The
// cached input comes with its values sorted, which the quantile and IQR
// estimators discretize in order, so a repeat release sorts nothing.
func estimate(led *releaseLedger, tab *dpsql.Table, req EstimateRequest) (EstimateResponse, error) {
	if req.GroupBy != "" {
		q := &dpsql.Query{Table: req.Table, GroupBy: req.GroupBy, Aggs: []dpsql.AggSpec{groupedAggSpec(req)}}
		res, err := execSQL(led, q, req.Epsilon, req.ContributionBound)
		if err != nil {
			return EstimateResponse{}, err
		}
		out := EstimateResponse{EpsSpent: req.Epsilon, Groups: make([]GroupValue, 0, len(res.Rows))}
		for _, row := range res.Rows {
			out.Groups = append(out.Groups, GroupValue{Group: row.Group.String(), Value: row.Value})
		}
		return out, nil
	}
	s, rel := led.s, led.rel
	stat := req.Stat
	empiricalStat := stat == "empirical_mean" || stat == "empirical_quantile"

	// Pull the contributions (consistent per-shard snapshots, merged): one
	// value per user (the shared replace-one-user reduction), or the raw
	// rows in insertion order when the request says a row IS a user. Count
	// needs only the unit count — no column read, no per-user numeric
	// collapse. This is the release's "scan" stage.
	scanStart := time.Now()
	var (
		n          int
		xs, sorted []float64
		zs         []int64
		err        error
	)
	// Per-user readers fan over the shards; each shard's partial scan
	// lands as a child span under "scan" (shard index + row count), so a
	// straggler shard is attributable from the retained trace. The
	// record-order readers (ColumnInts/ColumnFloats/NumRows) are
	// merge-dominated snapshot walks, and the user count sums the shards'
	// dictionary sizes: none has a per-shard fan to attribute.
	shardObs := dpsql.ShardObserver(shardSpanObserver(rel))
	switch {
	case stat == "count" && req.Unit == "record":
		n = tab.NumRows()
	case stat == "count":
		n = tab.NumUsers()
	case empiricalStat && req.Unit == "record":
		zs, err = tab.ColumnInts(req.Column)
	case empiricalStat:
		zs, err = tab.UserIntSums(req.Column, shardObs)
	case req.Unit == "record":
		xs, err = tab.ColumnFloats(req.Column)
		if stat == "median" || stat == "quantile" || stat == "iqr" {
			sorted = empirical.Sorted(xs) // the order the bucket reads need
		}
	default:
		xs, sorted, err = tab.SortedUserMeans(req.Column, shardObs)
	}
	if err != nil {
		return EstimateResponse{}, err
	}
	s.observeStage(rel, "scan", time.Since(scanStart))

	// Atomically reserve the budget in the cost's native unit, then
	// release. The tenant's ledger decides whether the cost is affordable
	// — or even representable (a pure-ε ledger refuses native-ρ costs) —
	// and on a durable tenant the deduction is on disk before the
	// mechanism may run.
	cost := dp.EpsCost(req.Epsilon)
	if req.Rho > 0 {
		cost = dp.RhoCost(req.Rho)
	}
	if err := led.Spend(cost); err != nil {
		return EstimateResponse{}, err
	}
	noiseStart := time.Now()
	defer func() { s.observeStage(rel, "noise", time.Since(noiseStart)) }()
	rng := s.splitRNG()
	seed := rng.Uint64()
	o := []updp.Option{updp.WithBeta(req.Beta), updp.WithSeed(seed)}
	var value float64
	switch stat {
	case "count":
		// Unit count (sensitivity 1 under one-unit change): Laplace when
		// charged in ε, Gaussian — the natively-zCDP mechanism — in ρ.
		if req.Rho > 0 {
			value = dp.Gaussian(rng, float64(n), 1, req.Rho)
		} else {
			value = dp.Laplace(rng, float64(n), 1, req.Epsilon)
		}
	case "mean":
		value, err = updp.Mean(xs, req.Epsilon, o...)
	case "variance":
		// Scale parameters are non-negative; projecting the raw release
		// onto [0, ∞) is free post-processing (as SQL's VAR, STDDEV and
		// IQR do).
		value, err = clampNonNeg(updp.Variance(xs, req.Epsilon, o...))
	case "stddev":
		value, err = updp.StdDev(xs, req.Epsilon, o...)
	case "iqr":
		value, err = clampNonNeg(core.EstimateIQRSorted(xrand.New(seed), xs, sorted, req.Epsilon, req.Beta))
	case "median", "quantile":
		// updp.Median and updp.Quantile with the sorted copy the table
		// keeps: the same seed, rank and answer, and no sort.
		p := req.P
		if stat == "median" {
			p = 0.5
		}
		value, err = core.EstimateQuantileSorted(xrand.New(seed), xs, sorted, core.QuantileRank(p, len(xs)), req.Epsilon, req.Beta)
	case "empirical_mean":
		value, err = updp.EmpiricalMean(zs, req.Epsilon, o...)
	case "empirical_quantile":
		var v int64
		v, err = updp.EmpiricalQuantile(zs, req.Tau, req.Epsilon, o...)
		value = float64(v)
	}
	if err != nil {
		return EstimateResponse{}, err
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return EstimateResponse{}, fmt.Errorf("serve: mechanism produced non-finite value")
	}
	// validateEstimate refuses epsilon and rho together, so the response
	// carries only the one the release was charged in.
	return EstimateResponse{Value: value, EpsSpent: req.Epsilon, RhoSpent: req.Rho}, nil
}

// clampNonNeg projects a scale release onto [0, ∞), passing errors through.
func clampNonNeg(v float64, err error) (float64, error) {
	if err == nil && v < 0 {
		v = 0
	}
	return v, err
}

// groupedAggSpec maps a grouped estimate's stat onto the SQL layer's
// aggregate (validateEstimate has already rejected stats with no grouped
// form).
func groupedAggSpec(req EstimateRequest) dpsql.AggSpec {
	switch req.Stat {
	case "count":
		return dpsql.AggSpec{Kind: dpsql.AggCount}
	case "variance":
		return dpsql.AggSpec{Kind: dpsql.AggVar, Col: req.Column}
	case "stddev":
		return dpsql.AggSpec{Kind: dpsql.AggStdDev, Col: req.Column}
	case "iqr":
		return dpsql.AggSpec{Kind: dpsql.AggIQR, Col: req.Column}
	case "median":
		return dpsql.AggSpec{Kind: dpsql.AggMedian, Col: req.Column}
	case "quantile":
		return dpsql.AggSpec{Kind: dpsql.AggQuantile, Col: req.Column, P: req.P}
	default: // "mean"
		return dpsql.AggSpec{Kind: dpsql.AggAvg, Col: req.Column}
	}
}
