// Command updp-bench runs the reproduction experiments E1–E21 (registered
// in internal/harness) and prints their tables. Each experiment regenerates one analytic claim of
// the paper (a utility theorem's shape, or Table 1's assumptions matrix).
//
// Usage:
//
//	updp-bench -list
//	updp-bench -exp E5,E10 -trials 20 -seed 1
//	updp-bench -all -quick -format md > results.md
//
// It is also the service-level load generator for updp-serve: -serve
// hammers a server with a mixed estimator/SQL workload from many
// concurrent clients and reports throughput and latency percentiles.
//
//	updp-bench -serve self -clients 32 -duration 5s
//	updp-bench -serve http://localhost:8500 -clients 64 -duration 30s -users 20000
//	updp-bench -serve self -accounting zcdp -window 60
//	updp-bench -serve self -grouped                  # GROUP BY workload: histograms + grouped releases
//	updp-bench -serve self -compare -budget 0.1
//	updp-bench -serve self -restart
//	updp-bench -serve self -duel              # durable vs ephemeral throughput
//	updp-bench -serve self -shards 8          # bench tenant on 8-way sharded tables
//	updp-bench -serve self -shards sweep      # shard-scaling sweep at N=1,4,16
//	updp-bench -serve self -snapshot-during   # release p99 during compaction vs steady state
//
// -accounting/-delta/-window pick the bench tenant's composition backend
// ("pure", "zcdp", or "rdp"); -compare runs the backend exhaustion duel
// instead of the throughput run: three twins with the same nominal
// (ε, δ) budget — pure-ε, zCDP, and Rényi (RDP) — receive the same mixed
// Laplace+Gaussian stream of small releases until each hits 429, showing
// rdp sustaining the most releases, zcdp next, pure fewest. -restart runs the
// durability recovery scenario: a durable server is spent against,
// compacted once, crashed without a flush, and re-opened — spend must
// carry over (never refill) and the recovery wall-time is reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		expFlag = flag.String("exp", "", "comma-separated experiment IDs (e.g. E1,E5)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiments and exit")
		trials  = flag.Int("trials", 0, "trials per table cell (0 = default)")
		seed    = flag.Uint64("seed", 1, "base RNG seed")
		quick   = flag.Bool("quick", false, "smaller data sizes for a fast pass")
		format  = flag.String("format", "text", "output format: text, md, csv")

		serveTarget = flag.String("serve", "", `load-generate against an updp-serve instance: "self" or a base URL`)
		clients     = flag.Int("clients", 32, "loadgen: concurrent clients")
		duration    = flag.Duration("duration", 5*time.Second, "loadgen: run length")
		users       = flag.Int("users", 5000, "loadgen: synthetic users in the bench table")
		loadEps     = flag.Float64("loadeps", 0.001, "loadgen: per-release epsilon")
		accounting  = flag.String("accounting", "pure", `loadgen: bench tenant backend, "pure", "zcdp", or "rdp"`)
		delta       = flag.Float64("delta", 0, "loadgen: zcdp/rdp delta (0 = server default 1e-6)")
		window      = flag.Float64("window", 0, "loadgen: bench tenant refill window in seconds (0 = lifetime)")
		compare     = flag.Bool("compare", false, "loadgen: run the pure-vs-zcdp-vs-rdp exhaustion duel (plus the grouped parallel-vs-even-split duel) instead of the throughput run")
		grouped     = flag.Bool("grouped", false, "loadgen: GROUP BY workload — histograms, grouped queries, grouped estimates (parallel-composed releases)")
		budget      = flag.Float64("budget", 0.1, "compare: nominal total epsilon per twin tenant")
		restart     = flag.Bool("restart", false, "loadgen: run the durability recovery scenario (ingest+spend, snapshot, crash, re-open) instead of the throughput run")
		duel        = flag.Bool("duel", false, "loadgen: run the durable-vs-ephemeral duel (same distinct-release load with and without a data dir) instead of the throughput run")
		shardsFlag  = flag.String("shards", "", `loadgen: bench tenant table shard count (an integer), or "sweep" to run the shard-scaling sweep (N=1,4,16: ingest rows/sec + release latency)`)
		snapDuring  = flag.Bool("snapshot-during", false, "loadgen: run the compaction-stall drill (release p99 with continuous background compaction vs steady state); composes with -shards sweep")
		metricsOut  = flag.String("metrics-out", "", "loadgen: save the final /metrics scrape (Prometheus text) to this file")
		tracesOut   = flag.String("traces-out", "", "loadgen: save the post-run GET /v1/traces dump (flight-recorder JSON) to this file")
	)
	flag.Parse()

	if *serveTarget != "" {
		cfg := loadgenConfig{
			target:     *serveTarget,
			clients:    *clients,
			duration:   *duration,
			users:      *users,
			eps:        *loadEps,
			seed:       *seed,
			accounting: *accounting,
			delta:      *delta,
			window:     *window,
			budget:     *budget,
			grouped:    *grouped,
			metricsOut: *metricsOut,
			tracesOut:  *tracesOut,
		}
		sweep := false
		switch *shardsFlag {
		case "", "0":
		case "sweep":
			sweep = true
		default:
			n, err := strconv.Atoi(*shardsFlag)
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "updp-bench: -shards wants a positive integer or \"sweep\", got %q\n", *shardsFlag)
				os.Exit(2)
			}
			cfg.shards = n
		}
		modes := 0
		for _, on := range []bool{*compare, *restart, *duel, sweep, *snapDuring} {
			if on {
				modes++
			}
		}
		if *snapDuring && sweep {
			modes-- // -snapshot-during composes with -shards sweep (drill per shard count)
		}
		if modes > 1 {
			fmt.Fprintln(os.Stderr, "updp-bench: -compare, -restart, -duel, -snapshot-during, and -shards sweep are mutually exclusive scenarios (except -snapshot-during with -shards sweep); pick one")
			os.Exit(2)
		}
		var err error
		switch {
		case *compare:
			err = runCompare(cfg)
		case *restart:
			err = runRestart(cfg)
		case *duel:
			err = runDuel(cfg)
		case *snapDuring:
			counts := []int{1}
			if sweep {
				counts = []int{1, 4, 16}
			} else if cfg.shards > 0 {
				counts = []int{cfg.shards}
			}
			err = runSnapshotDuring(cfg, counts)
		case sweep:
			err = runShardSweep(cfg)
		default:
			err = runLoadgen(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "updp-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n     reproduces: %s\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	var selected []harness.Experiment
	switch {
	case *all:
		selected = harness.All()
	case *expFlag != "":
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "updp-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	default:
		fmt.Fprintln(os.Stderr, "updp-bench: pass -all, -exp <ids>, or -list")
		os.Exit(2)
	}

	cfg := harness.Config{Seed: *seed, Trials: *trials, Quick: *quick}
	for _, e := range selected {
		switch *format {
		case "md":
			fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
			fmt.Printf("*Reproduces:* %s\n\n*Paper's prediction:* %s\n\n", e.PaperRef, e.Expect)
			for _, tb := range e.Run(cfg) {
				fmt.Println(tb.Markdown())
			}
		case "csv":
			for _, tb := range e.Run(cfg) {
				fmt.Printf("# %s: %s\n", e.ID, tb.Title)
				fmt.Print(tb.CSV())
			}
		case "text":
			fmt.Printf("=== %s — %s ===\n", e.ID, e.Title)
			fmt.Printf("reproduces: %s\nexpected:   %s\n\n", e.PaperRef, e.Expect)
			for _, tb := range e.Run(cfg) {
				fmt.Println(tb.Render())
			}
		default:
			fmt.Fprintf(os.Stderr, "updp-bench: unknown format %q\n", *format)
			os.Exit(2)
		}
	}
}
