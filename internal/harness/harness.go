// Package harness runs the repository's reproduction experiments E1–E21,
// registered in the exp_*.go files with the theorem or table each
// reproduces (PaperRef) and the shape the paper predicts (Expect); run
// updp-bench -list to print them. Each experiment regenerates one of the
// paper's analytic claims — a utility theorem's error shape or Table 1's
// assumptions matrix — as a numeric table. The harness is deterministic
// given a seed and renders tables as aligned text, Markdown, or CSV.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/xrand"
)

// Config controls an experiment run.
type Config struct {
	Seed   uint64 // base RNG seed (every experiment splits its own stream)
	Trials int    // repetitions per table cell (default 20, quick 7)
	Quick  bool   // shrink data sizes for smoke runs
}

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return 7
	}
	return 20
}

// rng derives the experiment's private random stream.
func (c Config) rng(expID string) *xrand.RNG {
	h := c.Seed
	for _, b := range []byte(expID) {
		h = h*1099511628211 + uint64(b)
	}
	return xrand.New(h)
}

// Table is one rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Experiment is a registered reproduction experiment.
type Experiment struct {
	ID       string // "E1" ... "E21"
	Title    string
	PaperRef string // theorem / table being reproduced
	Expect   string // the shape the paper predicts
	Run      func(cfg Config) []Table
}

var registry []Experiment

// register adds an experiment at init time, keeping the list sorted by ID.
func register(e Experiment) {
	registry = append(registry, e)
	sort.Slice(registry, func(i, j int) bool {
		return idOrder(registry[i].ID) < idOrder(registry[j].ID)
	})
}

func idOrder(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// All returns every registered experiment in ID order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID finds an experiment (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Render returns the table as aligned monospace text.
func (t Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown returns the table as a GitHub-flavored Markdown table.
func (t Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "**%s**\n\n", t.Title)
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	return sb.String()
}

// CSV returns the table in CSV form (RFC-4180 quoting for commas/quotes).
func (t Table) CSV() string {
	var sb strings.Builder
	writeRec := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRec(t.Columns)
	for _, row := range t.Rows {
		writeRec(row)
	}
	return sb.String()
}

// ---------- shared numeric helpers ----------

// median returns the median of xs (NaN for empty input).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

// fm formats a float compactly for table cells.
func fm(v float64) string {
	switch {
	case math.IsNaN(v):
		return "nan"
	case math.IsInf(v, 0):
		return "inf"
	case v == 0:
		return "0"
	case math.Abs(v) >= 0.01 && math.Abs(v) < 100000:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// fi formats an int for table cells.
func fi(v int) string { return fmt.Sprintf("%d", v) }

// pow2 formats 2^k labels.
func pow2(k int) string { return fmt.Sprintf("2^%d", k) }
