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
// The service's end-to-end throughput and latency are measured by
// perfbench (perfbench/run.sh), which checks every answer it gets.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

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
	)
	flag.Parse()

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
