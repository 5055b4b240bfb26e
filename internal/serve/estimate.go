package serve

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/updp"
)

// This file is the estimator release path: validation, the single budget
// deduction, the shard-fanned contribution scan, and the stat dispatch
// onto the universal estimators. The handler half (HTTP decode, cache,
// counters) lives in handlers.go.

// estimate validates the request, then hands the whole release — unit
// collapse, budget deduction, and mechanism — to a worker. Validation
// happens on the handler goroutine so data-independent mistakes (bad stat
// name, unknown table) cost nothing; the table scan and the Spend both
// run inside the pool, so the Workers bound really caps the CPU cost per
// release and a shed request (full queue) is never charged. Once the
// budget is deducted the charge sticks even if the mechanism fails.
// The request is already canonicalized (stat/unit lower-cased, defaults
// applied) by the handler.
func (s *Server) estimate(t *Tenant, req EstimateRequest, rel *release) (float64, []GroupValue, error) {
	tab, err := t.db.TableByName(req.Table)
	if err != nil {
		return 0, nil, err
	}
	if err := validateEstimate(req); err != nil {
		return 0, nil, err
	}
	var (
		value  float64
		groups []GroupValue
		runErr error
	)
	ran, wait := s.pool.doTimed(func() {
		if req.GroupBy != "" {
			groups, runErr = s.runGroupedEstimate(t, req, rel)
		} else {
			value, runErr = s.runEstimate(t, tab, req, rel)
		}
	})
	if !ran {
		s.metrics.shed.Inc()
		return 0, nil, ErrOverloaded
	}
	s.observeStage(rel, "queue_wait", wait)
	return value, groups, runErr
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

// runGroupedEstimate executes one grouped estimator release on a worker
// goroutine: the statistic is released once per group of the group_by
// column through the grouped SQL executor — bounded per-user group
// contributions, one parallel-composed deduction, one audit record, the
// same scan fan-out and stage spans a grouped query gets.
func (s *Server) runGroupedEstimate(t *Tenant, req EstimateRequest, rel *release) ([]GroupValue, error) {
	q := &dpsql.Query{
		Table:   req.Table,
		GroupBy: req.GroupBy,
		Aggs:    []dpsql.AggSpec{groupedAggSpec(req)},
	}
	rl := &releaseLedger{inner: t.spender, rel: rel}
	res, err := t.db.ExecQueryTraced(s.splitRNG(), q, req.Epsilon, dpsql.ExecOpts{
		Ledger:       rl,
		GroupBound:   req.ContributionBound,
		Observe:      func(stage string, d time.Duration) { s.observeStage(rel, stage, d) },
		ObserveShard: shardSpanObserver(rel),
	})
	if err != nil {
		return nil, err
	}
	groups := make([]GroupValue, 0, len(res.Rows))
	for _, row := range res.Rows {
		groups = append(groups, GroupValue{Group: row.Group.String(), Value: row.Value})
	}
	return groups, nil
}

// runEstimate executes one estimator release on a worker goroutine.
//
// Sharded scan: the contribution pull below fans out over the table's
// shards (dpsql readers run per-shard partial scans through the server's
// worker pool — see DB.SetFanout) and merges the partial per-user
// aggregates before anything else happens. The merge is pure
// reorganization of already-collapsed per-user summaries, so exactly one
// deduction is charged per release and the mechanism sees bit-for-bit the
// input a monolithic table would have produced — shard count changes
// wall-clock, never noise semantics or spend.
func (s *Server) runEstimate(t *Tenant, tab *dpsql.Table, req EstimateRequest, rel *release) (float64, error) {
	stat := req.Stat
	empiricalStat := stat == "empirical_mean" || stat == "empirical_quantile"

	// Pull the contributions (consistent per-shard snapshots, merged): one
	// value per user (the shared replace-one-user reduction), or the raw
	// rows in insertion order when the request says a row IS a user. Count
	// needs only the unit count — no column read, no per-user numeric
	// collapse. This is the release's "scan" stage.
	scanStart := time.Now()
	var (
		n   int
		xs  []float64
		zs  []int64
		err error
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
	default:
		xs, err = tab.UserMeans(req.Column, shardObs)
	}
	if err != nil {
		return 0, err
	}
	s.observeStage(rel, "scan", time.Since(scanStart))

	// Atomically reserve the budget in the cost's native unit, then
	// release. The tenant's ledger decides whether the cost is affordable
	// — or even representable (a pure-ε ledger refuses native-ρ costs).
	cost := dp.EpsCost(req.Epsilon)
	if req.Rho > 0 {
		cost = dp.RhoCost(req.Rho)
	}
	// t.spender is the tenant ledger (WAL-interposed on a durable server:
	// the deduction is on disk before the mechanism may run); the
	// per-release wrap stamps the charge onto this release for auditing.
	rl := &releaseLedger{inner: t.spender, rel: rel}
	if err := rl.Spend(cost); err != nil {
		return 0, err
	}
	noiseStart := time.Now()
	defer func() { s.observeStage(rel, "noise", time.Since(noiseStart)) }()
	rng := s.splitRNG()
	o := []updp.Option{updp.WithBeta(req.Beta), updp.WithSeed(rng.Uint64())}
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
		// onto [0, ∞) is free post-processing (as the SQL path does).
		value, err = clampNonNeg(updp.Variance(xs, req.Epsilon, o...))
	case "stddev":
		value, err = updp.StdDev(xs, req.Epsilon, o...)
	case "iqr":
		value, err = clampNonNeg(updp.IQR(xs, req.Epsilon, o...))
	case "median":
		value, err = updp.Median(xs, req.Epsilon, o...)
	case "quantile":
		value, err = updp.Quantile(xs, req.P, req.Epsilon, o...)
	case "empirical_mean":
		value, err = updp.EmpiricalMean(zs, req.Epsilon, o...)
	case "empirical_quantile":
		var v int64
		v, err = updp.EmpiricalQuantile(zs, req.Tau, req.Epsilon, o...)
		value = float64(v)
	}
	if err != nil {
		return 0, err
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return 0, fmt.Errorf("serve: mechanism produced non-finite value")
	}
	return value, nil
}

// clampNonNeg projects a scale release onto [0, ∞), passing errors through.
func clampNonNeg(v float64, err error) (float64, error) {
	if err == nil && v < 0 {
		v = 0
	}
	return v, err
}
