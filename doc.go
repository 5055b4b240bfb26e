// Package repro is a from-scratch Go reproduction of "Universal Private
// Estimators" (Wei Dong and Ke Yi, PODS 2023): pure ε-DP estimators for
// the mean, variance, and interquartile range of an arbitrary unknown
// continuous distribution, with no boundedness or family assumptions.
//
// Import repro/updp for the public API. See PAPER.md for the paper's
// abstract, internal/harness for the reproduction experiments (run them
// with cmd/updp-bench: updp-bench -all -quick -format md), and
// bench_test.go (this package) for one benchmark per reproduced
// table/figure.
//
// # Serving layer
//
// Beyond the library, the repository ships a concurrent multi-tenant DP
// query service (internal/serve, run with cmd/updp-serve): an HTTP+JSON
// API that hosts many tenants, each with an isolated dpsql database and
// one privacy ledger shared by every release path. Estimator calls
// (mean, variance, stddev, iqr, median, quantile, count, and the paper's
// Section-3 empirical variants) and full dpsql SQL queries execute
// concurrently on a bounded worker pool while ingestion streams in; the
// ledgers and the dpsql engine are safe for concurrent use, with atomic
// check-and-deduct budget enforcement so racing releases can never
// jointly overdraw a tenant's budget. perfbench (perfbench/run.sh, its
// own module) measures the service end to end: release throughput and
// latency percentiles on three workloads, with every answer checked.
// See examples/serve for a full client walkthrough.
//
// # Privacy accounting backends
//
// Accounting is pluggable (dp.Ledger): every release path — the
// updp.Estimator (WithLedger), the dpsql engine (DB.SetLedger), and the
// serve tenants ("accounting" in the create-tenant request) — charges a
// composition backend instead of a hard-wired pure-ε accountant.
// dp.BasicLedger preserves the paper's basic composition (Lemma 2.2);
// dp.ZCDPLedger accounts in zCDP ρ (Bun & Steinke 2016), pricing each
// pure ε-release at ε²/2 — so sustained many-small-release traffic lasts
// quadratically longer under the same nominal (ε, δ) — and charging the
// natively-Gaussian count release its ρ directly; dp.RDPLedger
// generalizes both with Rényi accounting (Mironov 2017) over a
// configurable grid of orders α: every release is priced as its full RDP
// curve (pure releases via the tight pure-DP→RDP bound, strictly below
// zCDP's αε²/2 line; Gaussian releases via ρα; curve-native costs via
// dp.CurveCost), the per-order vectors compose by addition, and the
// budget is enforced on the optimal (ε, δ) conversion — on a grid that
// brackets the optimal order (dp.RDPOrdersFor) never looser than zCDP,
// and strictly tighter on mixed Laplace+Gaussian workloads.
// dp.WindowedLedger wraps any backend with a wall-clock refill window,
// turning a lifetime budget into a renewable rate. The serve layer also
// replays byte-identical repeated releases from a per-tenant response
// cache (LRU-evicted, free post-processing) and supports record-level
// privacy units for tables where a row is a user. docs/ACCOUNTING.md is
// the operator's guide to choosing a backend and pricing; docs/API.md is
// the complete HTTP wire reference. The serve tests
// TestZCDPTenantSustainsTwiceThePureReleases and
// TestRDPTenantSustainsMostReleases pin the exhaustion duel: rdp >= zcdp
// >= pure sustained releases from the same nominal budget.
//
// # Durable tenant state
//
// A DP budget is a lifetime total, so a process restart must not refill
// it. internal/store is the per-tenant durability engine: an append-only
// write-ahead log (tenant creation, table DDL, row batches, and — synced
// before any answer is released — every ledger deduction) plus periodic
// compacted snapshots of full tenant state, with replay-on-boot recovery.
// The log is segmented: compaction first seals the active tail into an
// immutable, fully-fsynced wal.NNNNNNNNN.seg file (microseconds under
// the log lock), then replays the sealed segments into a fresh snapshot
// entirely off the hot path — no tenant lock, no shard locks — so
// releases and ingest on the tenant proceed at full speed while it runs;
// a crash at any point between seal and the post-publish segment sweep
// recovers exactly (covered segments are skipped, then cleaned by the
// next compaction). Run the service with updp-serve -data-dir to enable
// it; recovery is conservative — a torn tail in the ACTIVE log can drop
// trailing data rows but never a recorded deduction (sealed segments,
// being fully fsynced, refuse any damage loudly), so post-restart spend
// is always >= pre-crash acknowledged spend. Concurrent releases share their durability cost
// through WAL group commit: parked deductions and their audit records
// are drained into one batch WAL record and acked by a single shared
// fsync (adaptive — a lone release commits immediately, batches form
// from arrivals during the previous barrier), so durable throughput
// tracks ephemeral throughput at pool-width concurrency while every
// invariant stands: the deduction is on disk before its answer is
// released, a torn batch drops atomically (never a prefix), and
// "acknowledged implies audited" costs zero extra fsyncs because the
// audit copy rides the same batch record. The WAL is the only source of
// truth: compaction, background or at shutdown, is the one snapshot
// writer, and group commit the one commit path. The building blocks are
// reusable: every dp ledger implements
// Snapshot/Restore/ForceSpend (dp.StatefulLedger) and dpsql tables
// export/import their full state. The serve test
// TestCompactionConcurrentWithReleases is the recovery drill: releases
// run through 15 compactions, the server crashes without flushing, and
// the re-opened tenant's spend must be at least the acknowledged spend.
// perfbench's durable-ingest workload reports the durability cost per
// release (store.fsyncs_per_release with --trace 1).
//
// # Columnar sharded storage
//
// A tenant's tables are hash-partitioned by user id into N shards
// ("shards" at tenant creation, updp-serve -shards for the default):
// ingestion stripes across per-shard locks instead of serializing on one
// table-wide mutex, and release scans fan out over the shards on the
// serve layer's worker pool. Inside each shard, storage is columnar:
// numbers live in typed float64/int64 slices, and string columns are
// dictionary-coded — an int32 code per row into an append-only per-shard
// dictionary. The user column is the shard's user dictionary itself, so
// each row's user is a dense index and no id is stored twice. The hot
// release loops are therefore tight passes over contiguous arrays: a
// string WHERE predicate is evaluated once per dictionary entry and
// mapped to rows by code, GROUP BY on a string column finds each row's
// group by its code with no per-row hash, and the per-user collapse
// indexes accumulators directly. Each shard folds its rows in one
// sequential pass; the shard is the one unit of scan parallelism.
//
// The estimators consume the seeded RNG in input order, so per-user
// contributions must reach them in user-id order. Each table caches that
// order: every dictionary user of every shard has a rank, published
// through an atomic pointer and extended only when a shard's dictionary
// has grown (the newcomers alone are sorted and merged in). A release
// folds its rows — or the full-table readers' per-shard (sum, count)
// accumulators — in shard order into one rank-indexed accumulator and
// reads the occupied slots out in rank order, so no release sorts. Every
// user lives in one shard, so the merged per-user collapse is exactly
// the one a monolithic scan produces: a release still makes exactly one
// ledger deduction and the noise semantics are unchanged — for a fixed
// seed, a sharded columnar tenant and an unsharded twin release
// bit-for-bit identical answers, and 16 shards cost no more scan time
// than one. The
// wire, WAL and snapshot formats stay row-oriented (rows materialize
// fresh from the columns on export). Placement is hash(user id) mod the
// shard count and nothing records it: recovery routes every row again,
// older directories' shard tags and placement arrays are ignored (they
// name the same shards), and pre-shard and pre-columnar data directories
// boot unchanged with spend preserved. BenchmarkShardIngest and
// BenchmarkGroupedScan/shards=* price ingest and release scans by shard
// count, and perfbench's grouped-sharded workload runs 16 shards end to
// end.
//
// # Observability
//
// The service is instrumented end to end on internal/obs, a
// zero-dependency metrics and tracing kit: GET /metrics renders the
// full registry in the Prometheus text format (per-stage release
// latency histograms, per-tenant budget gauges with a burn-rate
// odometer and projected time-to-exhaustion, cache/pool/WAL counters);
// every release carries an ID (the X-Release-Id header) through a span
// trace that feeds a structured slow-release log; and every charged
// release appends one CRC-framed line to a per-tenant DP audit log —
// durable (via the shared group-commit barrier) before the answer is
// acknowledged on durable tenants, paged out via GET
// /v1/tenants/{id}/audit, and summing back to exactly the ledger's
// recorded spend. docs/OBSERVABILITY.md is the operator's
// catalog (metrics, trace stages, audit schema, scrape and pprof
// setup); updp-serve -metrics-addr and -debug-addr mount the scrape
// and net/http/pprof on dedicated listeners; perfbench --trace 1 adds
// the per-stage latency split to its run record.
package repro
