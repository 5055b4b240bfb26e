package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/internal/store"
	"repro/updp"
)

// This file is the HTTP wire surface: request/response types, JSON
// encoding helpers, the error-to-status mapping, and request decoding,
// canonicalization, and validation. The handlers and the one release
// lifecycle they share live in handlers.go; the estimator release lives
// in estimate.go. Nothing here touches a ledger or a mechanism —
// everything in this file is budget-free by construction.

// ---------- wire types ----------

// CreateTenantRequest creates a tenant with a nominal budget and a
// composition backend. Accounting picks the backend: "pure" (default,
// basic composition of pure ε), "zcdp" (ρ-accounting at an (ε, δ)
// target; Delta defaults to 1e-6 and every pure release is priced at
// ε²/2), or "rdp" (Rényi accounting over a grid of orders α at the same
// (ε, δ) target: every release is priced as its full RDP curve, composed
// per order, with the budget enforced on the optimal conversion — at
// least as tight as zcdp, strictly tighter on mixed Laplace+Gaussian
// traffic). Orders customizes the rdp grid (empty = the default α ∈
// [1.25, 64]; small ε at small δ needs larger orders — see
// docs/ACCOUNTING.md). WindowSeconds > 0 additionally makes the budget
// renewable: it refills to full every WindowSeconds of wall-clock time.
// Shards picks the tenant's table partition count (0 = server default):
// tables are hash-partitioned by user id into this many shards, striping
// ingestion across per-shard locks and fanning release scans over the
// worker pool — a pure storage topology, invisible to answers, noise,
// and budget.
type CreateTenantRequest struct {
	ID            string    `json:"id"`
	Epsilon       float64   `json:"epsilon"`
	Accounting    string    `json:"accounting,omitempty"`
	Delta         float64   `json:"delta,omitempty"`
	WindowSeconds float64   `json:"window_seconds,omitempty"`
	Shards        int       `json:"shards,omitempty"`
	Orders        []float64 `json:"orders,omitempty"`
}

// TenantStatus is the budget and counter view of one tenant. Total,
// Spent, and Remaining are in the backend's native unit (Unit: "eps" for
// pure tenants, "rho" for zcdp, "rdp" for rdp tenants — whose native
// state is the per-order vector, so their scalar fields already carry
// the converted (ε, δ) view); the *_epsilon fields are the (ε, δ)-DP
// view — for pure tenants they mirror the native numbers, for zcdp
// tenants spent_epsilon is the ρ→(ε, δ) conversion of the spend at the
// tenant's δ. For rdp tenants Orders is the Rényi grid, SpentRDP the
// per-order cumulative RDP spend (parallel to Orders), and BestOrder the
// α whose conversion currently certifies the spend. For windowed tenants
// the spend is within the current window. Shards is the tenant's table
// partition count.
type TenantStatus struct {
	ID         string  `json:"id"`
	Accounting string  `json:"accounting"`
	Unit       string  `json:"unit"`
	Total      float64 `json:"total"`
	Spent      float64 `json:"spent"`
	Remaining  float64 `json:"remaining"`

	TotalEpsilon     float64   `json:"total_epsilon"`
	SpentEpsilon     float64   `json:"spent_epsilon"`
	RemainingEpsilon float64   `json:"remaining_epsilon"`
	Delta            float64   `json:"delta,omitempty"`
	WindowSeconds    float64   `json:"window_seconds,omitempty"`
	Shards           int       `json:"shards,omitempty"`
	Orders           []float64 `json:"orders,omitempty"`
	SpentRDP         []float64 `json:"spent_rdp,omitempty"`
	BestOrder        float64   `json:"best_order,omitempty"`

	Queries        int64 `json:"queries"`
	Estimates      int64 `json:"estimates"`
	Histograms     int64 `json:"histograms"`
	Refusals       int64 `json:"refusals"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`

	// The budget odometer: burn rate in native units per second over the
	// odometer's sliding window, and the projected seconds until the
	// budget exhausts at that rate — omitted when the tenant is idle
	// (the projection is +Inf, which JSON cannot carry). AuditRecords is
	// the audit log's record count (one per charged release).
	BurnPerSecond       float64 `json:"burn_per_second"`
	SecondsToExhaustion float64 `json:"seconds_to_exhaustion,omitempty"`
	AuditRecords        uint64  `json:"audit_records"`
}

// ColumnSpec is one column in a CreateTableRequest: kind is "float",
// "int", or "string".
type ColumnSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// CreateTableRequest creates a table; UserColumn designates the privacy
// unit.
type CreateTableRequest struct {
	Name       string       `json:"name"`
	Columns    []ColumnSpec `json:"columns"`
	UserColumn string       `json:"user_column"`
}

// InsertRowsRequest appends rows; each row is positional, parallel to the
// table's columns. Numeric cells are JSON numbers, string cells strings.
type InsertRowsRequest struct {
	Rows [][]any `json:"rows"`
}

// InsertRowsResponse reports how many rows were stored.
type InsertRowsResponse struct {
	Inserted int `json:"inserted"`
}

// QueryRequest runs one dpsql SELECT with budget ε.
//
// GroupBy, when set, appends a GROUP BY over the named (public-category)
// column to the SQL — a convenience equal to writing it in the statement.
// ContributionBound caps how many groups one user may contribute to in a
// grouped query: omitted or 0 means the default cap of 1 (each user
// counts in its first-seen group only, and the whole grouped answer is
// priced by parallel composition as ONE release of the full ε); c >= 1
// caps at c (priced as c-fold sequential composition — same total ε,
// per-group accuracy ε/c). A negative bound is refused with 400
// bad_contribution_bound. Ignored for ungrouped queries.
type QueryRequest struct {
	SQL               string  `json:"sql"`
	GroupBy           string  `json:"group_by,omitempty"`
	Epsilon           float64 `json:"epsilon"`
	ContributionBound int     `json:"contribution_bound,omitempty"`
}

// QueryResultRow is one released row.
type QueryResultRow struct {
	Group  string    `json:"group,omitempty"`
	Values []float64 `json:"values"`
}

// QueryResponse is a released SQL answer. Cached reports a replay of a
// byte-identical earlier release (free — no budget was spent on it).
type QueryResponse struct {
	Rows     []QueryResultRow `json:"rows"`
	EpsSpent float64          `json:"eps_spent"`
	Cached   bool             `json:"cached,omitempty"`
}

// EstimateRequest runs one estimator release on a column. Stat is one of
// mean, variance, stddev, iqr, median, quantile (with P), count,
// empirical_mean, empirical_quantile (with Tau). Beta defaults to 0.1.
// Count privatizes the number of privacy units alone and ignores Column.
//
// Unit picks the privacy unit: "user" (default) collapses rows to one
// contribution per user first; "record" skips the collapse for datasets
// where a row IS a user (record-level DP — weaker when users own several
// rows, exact when they don't).
//
// Rho, valid for stat "count" only, releases the count through the
// Gaussian mechanism charged natively in zCDP ρ instead of ε — the
// cheapest way to count on a zcdp tenant (charged ρ directly) or an rdp
// tenant (charged the curve ρα); a pure tenant refuses it (the Gaussian
// mechanism has no finite pure-ε guarantee). Set either Epsilon or Rho,
// not both.
// GroupBy, when set, releases the statistic once per group of the named
// (public-category) column through the grouped SQL path — one release,
// priced by parallel composition under ContributionBound (see
// QueryRequest). Grouped estimates support the user unit and ε charging
// only, and the stats mean, variance, stddev, iqr, median, quantile, and
// count (the empirical stats and native-ρ counts have no grouped form);
// the response carries Groups instead of Value.
type EstimateRequest struct {
	Table             string  `json:"table"`
	Column            string  `json:"column"`
	Stat              string  `json:"stat"`
	GroupBy           string  `json:"group_by,omitempty"`
	P                 float64 `json:"p,omitempty"`
	Tau               int     `json:"tau,omitempty"`
	Epsilon           float64 `json:"epsilon,omitempty"`
	Rho               float64 `json:"rho,omitempty"`
	Beta              float64 `json:"beta,omitempty"`
	Unit              string  `json:"unit,omitempty"`
	ContributionBound int     `json:"contribution_bound,omitempty"`
}

// GroupValue is one group's released value in a grouped estimate.
type GroupValue struct {
	Group string  `json:"group"`
	Value float64 `json:"value"`
}

// EstimateResponse is a released estimate; exactly one of EpsSpent and
// RhoSpent is set, matching how the release was charged. Cached reports a
// replay of a byte-identical earlier release (free post-processing — no
// budget was spent on this response). Grouped estimates carry one entry
// per released group in Groups (sorted by group key) and leave Value 0.
type EstimateResponse struct {
	Value    float64      `json:"value"`
	Groups   []GroupValue `json:"groups,omitempty"`
	EpsSpent float64      `json:"eps_spent,omitempty"`
	RhoSpent float64      `json:"rho_spent,omitempty"`
	Cached   bool         `json:"cached,omitempty"`
}

// HistogramRequest releases a count-by-key histogram over a public
// categorical column: one noisy user count per group, as one grouped
// release priced by parallel composition under ContributionBound (see
// QueryRequest — same semantics, same default cap of 1).
type HistogramRequest struct {
	Table             string  `json:"table"`
	GroupBy           string  `json:"group_by"`
	Epsilon           float64 `json:"epsilon"`
	ContributionBound int     `json:"contribution_bound,omitempty"`
}

// HistogramBucket is one group's noisy user count.
type HistogramBucket struct {
	Group string  `json:"group"`
	Count float64 `json:"count"`
}

// HistogramResponse is a released histogram, buckets sorted by group
// key. Cached reports a free replay of a byte-identical earlier release.
type HistogramResponse struct {
	Buckets  []HistogramBucket `json:"buckets"`
	EpsSpent float64           `json:"eps_spent"`
	Cached   bool              `json:"cached,omitempty"`
}

// AuditResponse is one page of a tenant's DP audit log, oldest first.
// Total is the full record count; NextAfter, when set, is the cursor to
// pass as ?after= for the next page (absent on the last page).
type AuditResponse struct {
	Tenant    string              `json:"tenant"`
	Total     uint64              `json:"total"`
	Records   []store.AuditRecord `json:"records"`
	NextAfter uint64              `json:"next_after,omitempty"`
}

// ServerStats is the server-wide counter view. CacheEvictions counts LRU
// evictions across every tenant's response cache; DataDir names the
// durable store's directory (empty for in-memory servers). Every counter
// here reads the same instrument /metrics exposes — the two views cannot
// disagree.
type ServerStats struct {
	Tenants        int     `json:"tenants"`
	Workers        int     `json:"workers"`
	Queries        int64   `json:"queries"`
	Estimates      int64   `json:"estimates"`
	Histograms     int64   `json:"histograms"`
	Refusals       int64   `json:"refusals"`
	Shed           int64   `json:"shed"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	DataDir        string  `json:"data_dir,omitempty"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// ---------- encoding and error mapping ----------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, apiError{Error: err.Error(), Code: code})
}

// writeReleaseErr maps a release error onto the HTTP surface, returning
// the status it wrote (the release trace records it).
func writeReleaseErr(w http.ResponseWriter, err error) int {
	status, code := http.StatusBadRequest, "bad_request"
	switch {
	case errors.Is(err, dp.ErrBudgetExhausted):
		status, code = http.StatusTooManyRequests, "budget_exhausted"
	case errors.Is(err, errPersist):
		status, code = http.StatusInternalServerError, "persist_failed"
	case errors.Is(err, dp.ErrUnsupportedCost):
		status, code = http.StatusBadRequest, "unsupported_cost"
	case errors.Is(err, ErrOverloaded):
		status, code = http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, dpsql.ErrNoTable), errors.Is(err, dpsql.ErrNoColumn):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, dpsql.ErrTooFewUsers), errors.Is(err, updp.ErrTooFewSamples):
		status, code = http.StatusUnprocessableEntity, "too_few_users"
	case errors.Is(err, errBadGroupBy):
		status, code = http.StatusBadRequest, "bad_group_by"
	case errors.Is(err, dpsql.ErrBadGroupBound):
		status, code = http.StatusBadRequest, "bad_contribution_bound"
	}
	writeErr(w, status, code, err)
	return status
}

// errBadGroupBy reports a group_by combined with a request shape that has
// no grouped form (mapped to the "bad_group_by" error code).
var errBadGroupBy = errors.New("serve: invalid group_by request")

// ---------- decoding and validation ----------

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_json", fmt.Errorf("serve: decoding body: %w", err))
		return false
	}
	return true
}

// pathTenant resolves the {tenant} path segment, writing 404 on a miss.
func (s *Server) pathTenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	id := r.PathValue("tenant")
	t, ok := s.tenantByID(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no_tenant", fmt.Errorf("serve: no tenant %q", id))
	}
	return t, ok
}

// decodeColumnKind maps a wire column kind onto the schema layer's.
func decodeColumnKind(kind string) (dpsql.Kind, error) {
	switch strings.ToLower(kind) {
	case "float", "double", "real":
		return dpsql.KindFloat, nil
	case "int", "integer", "bigint":
		return dpsql.KindInt, nil
	case "string", "text", "varchar":
		return dpsql.KindString, nil
	default:
		return 0, fmt.Errorf("serve: unknown column kind %q", kind)
	}
}

// decodeCell maps one wire row cell onto a dpsql Value. JSON numbers
// decode as float64; Table.Insert converts integral floats into INT
// columns.
func decodeCell(cell any) (dpsql.Value, error) {
	switch c := cell.(type) {
	case float64:
		return dpsql.Float(c), nil
	case string:
		return dpsql.Str(c), nil
	default:
		return dpsql.Value{}, fmt.Errorf("unsupported JSON type %T", cell)
	}
}

// canonicalizeEstimate normalizes an estimate request in place so
// spelled-differently-but-equal requests share one cache entry and one
// validation path: names and modes are lower-cased, defaults applied, and
// fields the stat ignores zeroed (they must not split the cache into
// separately-charged entries for semantically identical requests).
func canonicalizeEstimate(req *EstimateRequest) {
	req.Stat = strings.ToLower(req.Stat)
	req.Unit = strings.ToLower(req.Unit)
	if req.Unit == "" {
		req.Unit = "user"
	}
	if req.Beta == 0 {
		req.Beta = 0.1
	}
	if req.Stat != "quantile" {
		req.P = 0
	}
	if req.Stat != "empirical_quantile" {
		req.Tau = 0
	}
	if req.Stat == "count" {
		// Count privatizes the unit count alone: no column, no utility
		// parameter.
		req.Column = ""
		req.Beta = 0
	}
	if req.GroupBy != "" {
		// Grouped estimates run through the SQL path, which fixes β = 0.1;
		// a client-supplied Beta must not split the cache.
		req.Beta = 0
	} else {
		// The bound only means something for grouped releases: an
		// ungrouped one runs at bound 1 (already validated).
		req.ContributionBound = 1
	}
}

// estimateCacheKey fingerprints a canonicalized estimate request. Names
// are %q-quoted so crafted table/column strings cannot collide across
// field boundaries.
func estimateCacheKey(req EstimateRequest) string {
	return fmt.Sprintf("est|%q|%q|%s|gb=%q|p=%g|tau=%d|eps=%g|rho=%g|beta=%g|unit=%s|cb=%d",
		strings.ToLower(req.Table), strings.ToLower(req.Column), req.Stat,
		strings.ToLower(req.GroupBy), req.P, req.Tau, req.Epsilon, req.Rho,
		req.Beta, req.Unit, req.ContributionBound)
}

// validateEstimate checks the data-independent parts of a canonicalized
// estimate request — stat name, unit, quantile parameters, the ρ-charging
// rules. It runs on the handler goroutine before the cache lookup and
// before any budget is touched, so a malformed request costs nothing.
func validateEstimate(req EstimateRequest) error {
	switch req.Unit {
	case "user", "record":
	default:
		return fmt.Errorf("serve: unknown privacy unit %q (want \"user\" or \"record\")", req.Unit)
	}
	switch req.Stat {
	case "mean", "variance", "stddev", "iqr", "median", "empirical_mean", "count":
	case "quantile":
		if !(req.P > 0 && req.P < 1) {
			return fmt.Errorf("%w: got %v", updp.ErrInvalidQuantile, req.P)
		}
	case "empirical_quantile":
		if req.Tau < 1 {
			return fmt.Errorf("serve: empirical_quantile needs tau >= 1, got %d", req.Tau)
		}
	default:
		return fmt.Errorf("serve: unknown stat %q", req.Stat)
	}
	if req.Rho != 0 {
		// Native zCDP charging exists exactly for the Gaussian mechanism,
		// which serves the sensitivity-1 count; the universal estimators
		// are pure-DP constructions and always charge ε.
		if req.Stat != "count" {
			return fmt.Errorf("serve: rho charging supports stat \"count\" only, got %q", req.Stat)
		}
		if req.Epsilon != 0 {
			return fmt.Errorf("serve: set either epsilon or rho, not both")
		}
		if err := dp.CheckRho(req.Rho); err != nil {
			return err
		}
	}
	if req.GroupBy != "" {
		// Grouped estimates run through the user-level grouped SQL path:
		// no record unit, no empirical stats, no native-ρ charging.
		if req.Unit != "user" {
			return fmt.Errorf("%w: group_by needs unit \"user\", got %q", errBadGroupBy, req.Unit)
		}
		if req.Stat == "empirical_mean" || req.Stat == "empirical_quantile" {
			return fmt.Errorf("%w: stat %q has no grouped form", errBadGroupBy, req.Stat)
		}
		if req.Rho != 0 {
			return fmt.Errorf("%w: grouped releases charge epsilon, not rho", errBadGroupBy)
		}
	}
	return nil
}

// canonicalBound validates a release's contribution bound in place and
// rewrites it canonically (an omitted bound becomes its default of 1), so
// an omitted bound and an explicit 1 share one cache entry. On an invalid
// bound it writes the 400 and reports false; nothing has been charged.
func canonicalBound(w http.ResponseWriter, bound *int) bool {
	b, err := dpsql.CheckGroupBound(*bound)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_contribution_bound", err)
		return false
	}
	*bound = b
	return true
}
