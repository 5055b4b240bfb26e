package main

import (
	"fmt"
	"strings"

	"repro/internal/dpsql"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// workload is one named traffic mix: the tenant it provisions, the
// closed-loop release stream, and the open-loop row-batch stream.
type workload struct {
	name        string
	users       int
	rowsPerUser int
	groups      int
	shards      int
	durable     bool
	accounting  string // tenant ledger backend: "pure" or "zcdp"
	// clients is the closed-loop client count on nproc CPUs.
	clients func(nproc int) int
	// ingestOwn sends the row batches to the measured tenant. Otherwise
	// they go to a side tenant on the same server, so the measured
	// tenant's data and response cache stay fixed while a writer runs
	// beside the readers.
	ingestOwn bool
	// next returns closed-loop client c's i-th release.
	next func(seed uint64, c, i int) request
	// sqls is the statement set the dpsql layer sweep executes.
	sqls []string
}

// Open-loop ingest stream shared by every workload: ingestRate batches
// per second of ingestRows rows each, all for existing users, so the
// user count the count checks rely on never changes. At 10k users and
// 2 rows each a 20 s window grows the durable table by 20%. The rate
// gives a p99 several thousand samples.
const (
	ingestRate = 200.0
	ingestRows = 1
)

var workloads = map[string]workload{
	"mixed": {
		name: "mixed", users: 5000, rowsPerUser: 2, groups: 3, shards: 1,
		accounting: "pure",
		clients:    func(nproc int) int { return nproc },
		next:       mixedNext,
		sqls:       mixedSQL,
	},
	"grouped-sharded": {
		name: "grouped-sharded", users: 20000, rowsPerUser: 3, groups: 3, shards: 16,
		accounting: "pure",
		clients:    func(nproc int) int { return nproc },
		next:       groupedNext,
		sqls: []string{
			"SELECT COUNT(*) FROM metrics GROUP BY grp",
			"SELECT AVG(v) FROM metrics GROUP BY grp",
			"SELECT MEDIAN(v) FROM metrics GROUP BY grp",
		},
	},
	"durable-ingest": {
		name: "durable-ingest", users: 10000, rowsPerUser: 2, groups: 3, shards: 1,
		durable: true, accounting: "zcdp", ingestOwn: true,
		clients: func(nproc int) int { return max(1, nproc-1) },
		next:    durableNext,
		sqls: []string{
			"SELECT COUNT(*) FROM metrics",
			"SELECT MEDIAN(v) FROM metrics",
		},
	},
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"mixed", "grouped-sharded", "durable-ingest"}

// request is one release: the endpoint kind and its wire body.
type request struct {
	kind string // "query", "estimate" or "histogram"
	body any    // serve.QueryRequest, serve.EstimateRequest or serve.HistogramRequest
}

func (r request) path(tenant string) string { return "/v1/tenants/" + tenant + "/" + r.kind }

// grouped reports whether the release answers once per group.
func (r request) grouped() bool {
	switch b := r.body.(type) {
	case serve.QueryRequest:
		return b.GroupBy != "" || strings.Contains(strings.ToUpper(b.SQL), "GROUP BY")
	case serve.EstimateRequest:
		return b.GroupBy != ""
	}
	return true // histograms
}

// cost is the native charge of the release on a ledger of the given
// accounting: ε on a pure ledger; on zcdp ε²/2 for an ε release and ρ
// for a ρ release.
func (r request) cost(accounting string) float64 {
	var eps, rho float64
	switch b := r.body.(type) {
	case serve.QueryRequest:
		eps = b.Epsilon
	case serve.EstimateRequest:
		eps, rho = b.Epsilon, b.Rho
	case serve.HistogramRequest:
		eps = b.Epsilon
	}
	if accounting == "zcdp" {
		if rho > 0 {
			return rho
		}
		return eps * eps / 2
	}
	return eps
}

// uniq numbers client c's i-th request uniquely within a run; warm-up
// requests use a client index no closed-loop client has.
func uniq(c, i int) int { return c*10_000_000 + i }

// jitter is a relative budget jitter that makes every request with its
// own (c, i) byte-distinct, so no two of them share a cache entry.
func jitter(c, i int) float64 { return 1 + float64(uniq(c, i))*1e-12 }

// unitHash maps (seed, c, i) to [0, 1) — the seeded quantile ranks.
func unitHash(seed uint64, c, i int) float64 {
	z := seed ^ uint64(uniq(c, i))*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// mixedSQL and mixedStats are the repeated request set of the mixed
// workload: the service load generator's dashboard mix.
var (
	mixedSQL = []string{
		"SELECT AVG(v) FROM metrics",
		"SELECT COUNT(*) FROM metrics",
		"SELECT MEDIAN(v) FROM metrics",
		"SELECT AVG(v) FROM metrics GROUP BY grp",
	}
	mixedStats = []string{"mean", "median", "iqr", "variance"}
)

// mixedNext is half SQL, half /estimate; within each half, 3 requests in
// 8 repeat a fixed set (cache hits after the first) and the rest are
// distinct (a per-request WHERE bound or quantile rank). With exactly half
// repeated, the median latency would sit on the edge between cache hits
// and misses and read the slowest hit; at 3 in 8 it lies among the misses.
func mixedNext(seed uint64, c, i int) request {
	distinct := (i/2)%8 >= 3
	if (c+i)%2 == 0 {
		sql := mixedSQL[i%len(mixedSQL)]
		if distinct {
			sql = fmt.Sprintf("SELECT AVG(v) FROM metrics WHERE v < %d", 100000+uniq(c, i))
		}
		return request{kind: "query", body: serve.QueryRequest{SQL: sql, Epsilon: 1}}
	}
	req := serve.EstimateRequest{Table: "metrics", Column: "v", Stat: mixedStats[i%len(mixedStats)], Epsilon: 1}
	if distinct {
		req.Stat = "quantile"
		req.P = 0.001 + 0.998*unitHash(seed, c, i)
	}
	return request{kind: "estimate", body: req}
}

// groupedNext cycles histograms, grouped AVG queries and grouped median
// estimates, every one distinct.
func groupedNext(_ uint64, c, i int) request {
	eps := jitter(c, i)
	switch i % 3 {
	case 0:
		return request{kind: "histogram", body: serve.HistogramRequest{Table: "metrics", GroupBy: "grp", Epsilon: eps}}
	case 1:
		return request{kind: "query", body: serve.QueryRequest{SQL: "SELECT AVG(v) FROM metrics", GroupBy: "grp", Epsilon: eps}}
	default:
		return request{kind: "estimate", body: serve.EstimateRequest{
			Table: "metrics", Column: "v", Stat: "median", GroupBy: "grp", Epsilon: eps,
		}}
	}
}

// durableNext sends 5 distinct quantile releases in 8 and 3 distinct user
// counts, the counts alternating Laplace (ε) and Gaussian (ρ). Counts are
// the cheaper kind; were they exactly half, the median latency would sit
// on the edge between the two kinds and read the slowest count.
func durableNext(seed uint64, c, i int) request {
	switch i % 8 {
	case 1, 4, 6:
		if n := i/8*3 + i%8/3; n%2 == 1 { // n numbers the counts
			return request{kind: "estimate", body: serve.EstimateRequest{Table: "metrics", Stat: "count", Rho: 0.5 * jitter(c, i)}}
		}
		return request{kind: "estimate", body: serve.EstimateRequest{Table: "metrics", Stat: "count", Epsilon: jitter(c, i)}}
	default:
		return request{kind: "estimate", body: serve.EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: 0.001 + 0.998*unitHash(seed, c, i), Epsilon: 1,
		}}
	}
}

// warmClient is the client index of the warm-up's cheap charged
// releases; no closed-loop client has it.
const warmClient = 99

// warmRequest is the k-th cheap charged warm-up release: a distinct
// record-unit count, which costs a row count, a deduction and an audit
// record.
func warmRequest(k int) request {
	return request{kind: "estimate", body: serve.EstimateRequest{
		Table: "metrics", Stat: "count", Unit: "record", Epsilon: jitter(warmClient, k),
	}}
}

// tableColumns is the schema of the workload table.
var tableColumns = []serve.ColumnSpec{
	{Name: "uid", Kind: "string"},
	{Name: "v", Kind: "float"},
	{Name: "grp", Kind: "string"},
}

func userID(u int) string { return fmt.Sprintf("u%06d", u) }

func groupOf(u, groups int) string { return fmt.Sprintf("g%d", u%groups) }

// tableRows generates the workload table from the seed: users × rowsPerUser
// rows of v ~ N(250, 30²), each user in one of the groups.
func tableRows(wl workload, seed uint64) [][]any {
	rng := xrand.New(seed)
	rows := make([][]any, 0, wl.users*wl.rowsPerUser)
	for u := 0; u < wl.users; u++ {
		for r := 0; r < wl.rowsPerUser; r++ {
			rows = append(rows, []any{userID(u), 250 + 30*rng.Gaussian(), groupOf(u, wl.groups)})
		}
	}
	return rows
}

// ingestBatch is the k-th open-loop row batch: ingestRows rows of one
// existing user, keeping that user's group.
func ingestBatch(wl workload, seed uint64, k int) [][]any {
	u := int(unitHash(seed, 1_000, k) * float64(wl.users))
	rng := xrand.New(seed ^ uint64(k+1)*0x2545f4914f6cdd1d)
	rows := make([][]any, ingestRows)
	for r := range rows {
		rows[r] = []any{userID(u), 250 + 30*rng.Gaussian(), groupOf(u, wl.groups)}
	}
	return rows
}

// dpsqlRows converts wire rows to the dpsql values the table stores.
func dpsqlRows(rows [][]any) [][]dpsql.Value {
	out := make([][]dpsql.Value, len(rows))
	for i, r := range rows {
		out[i] = []dpsql.Value{dpsql.Str(r[0].(string)), dpsql.Float(r[1].(float64)), dpsql.Str(r[2].(string))}
	}
	return out
}
