package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/dp"
	"repro/internal/serve"
)

// countBeta is the tail probability each count check allows: a correct
// server fails one count check with probability at most countBeta.
const countBeta = 1e-9

// checker validates release answers against what the benchmark knows
// about the tenant's data.
type checker struct {
	groups int // the table's group count
	users  int // true user count
	rows   int // true row count (record-unit counts run before any ingest)
}

// outcome is one checked release: whether the ledger charged it (a cache
// replay is free) and the error when the answer is wrong.
type outcome struct {
	charged bool
	err     error
}

// check validates one reply: status 200, a body that decodes to finite
// values (the server cannot encode a non-finite one, so a decode failure
// is how it shows), the table's group count on grouped releases, the
// spent field equal to the requested charge, and counts within their
// noise tail of the true count.
func (k checker) check(r request, status int, body []byte) outcome {
	if status != http.StatusOK {
		return outcome{err: fmt.Errorf("%s: HTTP %d: %.200s", r.kind, status, body)}
	}
	var (
		vals   []float64
		groups int
		cached bool
		spent  float64
		want   float64
	)
	switch b := r.body.(type) {
	case serve.QueryRequest:
		var out serve.QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return outcome{err: fmt.Errorf("query: decoding answer: %w", err)}
		}
		for _, row := range out.Rows {
			vals = append(vals, row.Values...)
		}
		groups, cached, spent, want = len(out.Rows), out.Cached, out.EpsSpent, b.Epsilon
	case serve.HistogramRequest:
		var out serve.HistogramResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return outcome{err: fmt.Errorf("histogram: decoding answer: %w", err)}
		}
		for _, bk := range out.Buckets {
			vals = append(vals, bk.Count)
		}
		groups, cached, spent, want = len(out.Buckets), out.Cached, out.EpsSpent, b.Epsilon
	case serve.EstimateRequest:
		var out serve.EstimateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return outcome{err: fmt.Errorf("estimate: decoding answer: %w", err)}
		}
		vals = append(vals, out.Value)
		for _, g := range out.Groups {
			vals = append(vals, g.Value)
		}
		groups, cached = len(out.Groups), out.Cached
		spent, want = out.EpsSpent, b.Epsilon
		if b.Rho > 0 {
			spent, want = out.RhoSpent, b.Rho
		}
		if b.Stat == "count" && b.GroupBy == "" {
			if err := k.checkCount(b, out.Value); err != nil {
				return outcome{err: err}
			}
		}
	default:
		return outcome{err: fmt.Errorf("unknown request body %T", r.body)}
	}
	if len(vals) == 0 || !finite(vals...) {
		return outcome{err: fmt.Errorf("%s: answer has no values or a non-finite one: %v", r.kind, vals)}
	}
	if r.grouped() && groups != k.groups {
		return outcome{err: fmt.Errorf("%s: %d groups, the table has %d", r.kind, groups, k.groups)}
	}
	if spent != want {
		return outcome{err: fmt.Errorf("%s: answer reports %v spent, the request asked for %v", r.kind, spent, want)}
	}
	return outcome{charged: !cached}
}

// checkCount holds a released count to its noise tail: |x − n| ≤
// ln(1/β)/ε for Laplace and σ·√(2·ln(2/β)) for Gaussian.
func (k checker) checkCount(b serve.EstimateRequest, got float64) error {
	truth, tail := k.users, 0.0
	if b.Unit == "record" {
		truth = k.rows
	}
	if b.Rho > 0 {
		tail = dp.GaussianSigma(1, b.Rho) * math.Sqrt(2*math.Log(2/countBeta))
	} else {
		tail = dp.LaplaceTail(1/b.Epsilon, countBeta)
	}
	if math.Abs(got-float64(truth)) > tail {
		return fmt.Errorf("count %v is more than %.3g from the true count %d", got, tail, truth)
	}
	return nil
}

// checkSpend compares the tenant's reported spend with the sum of the
// charges the benchmark saw answered, and its audit total with their
// number.
func checkSpend(spent, wantSpent float64, auditTotal uint64, charged int) error {
	if math.Abs(spent-wantSpent) > 1e-9*math.Max(1, math.Abs(wantSpent)) {
		return fmt.Errorf("tenant reports %v spent, the answered releases charged %v", spent, wantSpent)
	}
	if auditTotal != uint64(charged) {
		return fmt.Errorf("audit log holds %d records, %d releases were charged", auditTotal, charged)
	}
	return nil
}

// checkRecovered holds a reopened durable tenant to the never-refill
// invariant.
func checkRecovered(before, after float64) error {
	if after < before {
		return fmt.Errorf("recovered spend %v is below the %v spent before close", after, before)
	}
	return nil
}

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
