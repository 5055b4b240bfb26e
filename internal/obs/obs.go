// Package obs is the repository's zero-dependency telemetry layer:
// atomic counters, gauges, fixed-bucket histograms (plain or labeled),
// a registry that renders them in the Prometheus text exposition format
// (version 0.0.4), and a request-scoped trace context (trace.go) that
// carries a release ID through the serve → dpsql → mechanism → store
// pipeline.
//
// Design constraints, in order:
//
//   - Hot-path writes must be wait-free reads-and-adds: a release path
//     observing a stage latency touches one atomic add per bucket plus a
//     CAS loop on the sum — no locks, no allocation. The serve layer
//     threads these through paths that run millions of times per hour.
//   - Reads (a /metrics scrape, /v1/stats) take consistent-enough
//     snapshots from the same atomics, so the JSON stats and the
//     Prometheus exposition report from one source of truth.
//   - No third-party dependency: the container bakes in nothing beyond
//     the standard library, so the exposition writer is hand-rolled
//     against the documented text format.
//
// Metric names are validated at registration against the Prometheus
// naming convention (ValidName); registering an invalid name panics —
// it is a programmer error, caught by the first test that touches the
// registry, never a runtime condition.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// nameRe is the Prometheus metric naming convention the CI guard test
// enforces; label names drop the colon (reserved for recording rules).
var (
	nameRe  = regexp.MustCompile(`^[a-z_:][a-z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
)

// ValidName reports whether name matches the Prometheus metric naming
// convention (^[a-z_:][a-z0-9_:]*$).
func ValidName(name string) bool { return nameRe.MatchString(name) }

// ValidLabel reports whether name is usable as a label name.
func ValidLabel(name string) bool { return labelRe.MatchString(name) }

// ---------- instruments ----------

// Counter is a monotonically increasing atomic counter. The zero value
// is unusable — obtain counters from a Registry so they render on
// /metrics; the serve layer's JSON stats read the same atomic.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be >= 0; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 (current value, may go down).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency/size histogram: per-bucket atomic
// counters plus an atomic sum, wait-free on the observe path. Bucket
// bounds are upper bounds in ascending order; the +Inf bucket is
// implicit. Observations are in the metric's base unit (seconds for the
// repository's *_seconds histograms). Each bucket additionally holds one
// exemplar slot — the most recent (value, trace ID) observed into it via
// ObserveExemplar — rendered in OpenMetrics exemplar syntax when the
// registry opts in (SetExemplars), so a dashboard's p99 bucket links
// straight to a retained release trace.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; [len(bounds)] is +Inf
	ex      []atomic.Pointer[exemplar]
	count   atomic.Int64
	sumBits atomic.Uint64
}

// exemplar is one bucket's most recent traced observation.
type exemplar struct {
	id string // release/trace ID (rendered as the release_id label)
	v  float64
	ts time.Time
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:  b,
		buckets: make([]atomic.Int64, len(b)+1),
		ex:      make([]atomic.Pointer[exemplar], len(b)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; linear is faster for the
	// typical ~16 buckets but sort.SearchFloat64s keeps it obviously right.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar is Observe plus an exemplar: the bucket the value
// falls in remembers (id, v, now) as its most recent traced
// observation. One extra atomic pointer store over Observe — cheap
// enough to call unconditionally; whether exemplars RENDER is the
// registry's opt-in.
func (h *Histogram) ObserveExemplar(v float64, id string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.ex[i].Store(&exemplar{id: id, v: v, ts: time.Now()})
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total observation count.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reads the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets is the default bound set for the repository's latency
// histograms, in seconds: 10µs to 10s, roughly 1-2.5-5 per decade. WAL
// fsyncs sit in the 100µs–10ms range on real disks, release scans in
// the 10µs–100ms range — both well inside the grid.
func LatencyBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5, 5, 10,
	}
}

// ---------- registry ----------

// metricKind is the TYPE line a family renders.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name: help, type, label schema, and the children
// keyed by joined label values (one unlabeled child for plain metrics).
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu       sync.RWMutex
	children map[string]any // *Counter | *Gauge | *Histogram
	keys     []string       // insertion-independent render order (sorted)

	bounds  []float64            // histogram families
	collect func(emit EmitGauge) // gauge-func families: sampled at render
}

// EmitGauge receives one sample from a gauge-func collector; labelValues
// must parallel the family's label names.
type EmitGauge func(v float64, labelValues ...string)

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Create with NewRegistry; safe for concurrent
// registration, writes, and rendering.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // sorted at render

	// exemplars opts the exposition into OpenMetrics exemplar suffixes
	// on histogram bucket lines. Off by default: exemplar syntax is not
	// part of text format 0.0.4, so the default rendering stays strictly
	// 0.0.4-valid for scrapers (and tests) that parse it line by line.
	exemplars atomic.Bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// SetExemplars opts histogram bucket lines into (or out of) OpenMetrics
// exemplar suffixes: `... 5 # {release_id="r-ab12cd-7"} 0.034 <ts>`.
// Safe to flip at any time; rendering reads it per scrape.
func (r *Registry) SetExemplars(on bool) { r.exemplars.Store(on) }

// register adds a family, panicking on duplicate or invalid names —
// both are programmer errors the first test run catches.
func (r *Registry) register(f *family) *family {
	if !ValidName(f.name) {
		panic(fmt.Sprintf("obs: metric name %q violates ^[a-z_:][a-z0-9_:]*$", f.name))
	}
	for _, l := range f.labels {
		if !ValidLabel(l) {
			panic(fmt.Sprintf("obs: label name %q on %q violates ^[a-z_][a-z0-9_]*$", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	f.children = map[string]any{}
	r.families[f.name] = f
	r.names = append(r.names, f.name)
	return f
}

// child returns the family's child for the given label values, creating
// it on first use.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := joinLabelValues(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c2 any
	switch f.kind {
	case kindCounter:
		c2 = &Counter{}
	case kindGauge:
		c2 = &Gauge{}
	case kindHistogram:
		c2 = newHistogram(f.bounds)
	}
	f.children[key] = c2
	f.keys = append(f.keys, key)
	sort.Strings(f.keys)
	return c2
}

// Counter registers a plain (unlabeled) counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, kind: kindCounter})
	return f.child(nil).(*Counter)
}

// CounterVec registers a labeled counter family; obtain children with
// With.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: kindCounter, labels: labels})}
}

// Gauge registers a plain (unlabeled) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(&family{name: name, help: help, kind: kindGauge})
	return f.child(nil).(*Gauge)
}

// GaugeFunc registers a gauge family whose samples are produced by
// collect at every render — the right shape for values derived from
// live state (queue depths, per-tenant budget odometers) rather than
// accumulated by callers. collect must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, labels []string, collect func(emit EmitGauge)) {
	r.register(&family{name: name, help: help, kind: kindGauge, labels: labels, collect: collect})
}

// Histogram registers a plain (unlabeled) histogram over the given
// ascending bucket upper bounds (+Inf implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(&family{name: name, help: help, kind: kindHistogram, bounds: bounds})
	return f.child(nil).(*Histogram)
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{name: name, help: help, kind: kindHistogram, labels: labels, bounds: bounds})}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values (parallel
// to the registered label names), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).(*Counter)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).(*Histogram)
}

// ---------- exposition ----------

// Render writes every family in the Prometheus text exposition format
// (version 0.0.4), families sorted by name, children by label values.
// Families with no children and no collector render nothing.
func (r *Registry) Render(sb *strings.Builder) {
	r.mu.RLock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	ex := r.exemplars.Load()
	for _, f := range fams {
		f.render(sb, ex)
	}
}

// RenderText is Render into a fresh string.
func (r *Registry) RenderText() string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// gaugeSample is one collected gauge-func sample.
type gaugeSample struct {
	key string
	v   float64
}

func (f *family) render(sb *strings.Builder, exemplars bool) {
	if f.collect != nil {
		var samples []gaugeSample
		f.collect(func(v float64, labelValues ...string) {
			if len(labelValues) != len(f.labels) {
				panic(fmt.Sprintf("obs: gauge-func %q wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
			}
			samples = append(samples, gaugeSample{key: joinLabelValues(labelValues), v: v})
		})
		if len(samples) == 0 {
			return
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i].key < samples[j].key })
		f.header(sb)
		for _, s := range samples {
			sb.WriteString(f.name)
			writeLabels(sb, f.labels, splitLabelValues(s.key, len(f.labels)), "", 0)
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(s.v))
			sb.WriteByte('\n')
		}
		return
	}
	f.mu.RLock()
	keys := make([]string, len(f.keys))
	copy(keys, f.keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	if len(children) == 0 {
		return
	}
	f.header(sb)
	for i, key := range keys {
		values := splitLabelValues(key, len(f.labels))
		switch c := children[i].(type) {
		case *Counter:
			sb.WriteString(f.name)
			writeLabels(sb, f.labels, values, "", 0)
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatInt(c.Value(), 10))
			sb.WriteByte('\n')
		case *Gauge:
			sb.WriteString(f.name)
			writeLabels(sb, f.labels, values, "", 0)
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(c.Value()))
			sb.WriteByte('\n')
		case *Histogram:
			// Buckets are cumulative in the exposition format; read the
			// per-bucket atomics once and accumulate. A scrape racing
			// observations may see a bucket ahead of the count by a hair —
			// the standard, documented looseness of lock-free histograms.
			cum := int64(0)
			for b := range c.buckets {
				cum += c.buckets[b].Load()
				le := "+Inf"
				if b < len(c.bounds) {
					le = formatFloat(c.bounds[b])
				}
				sb.WriteString(f.name)
				sb.WriteString("_bucket")
				writeLabels(sb, f.labels, values, "le", -1)
				// writeLabels wrote up to the le marker; finish it here.
				sb.WriteString(`le="`)
				sb.WriteString(le)
				sb.WriteString("\"} ")
				sb.WriteString(strconv.FormatInt(cum, 10))
				if exemplars {
					// The exemplar belongs to the bucket the observation
					// actually fell in (non-cumulative), per OpenMetrics.
					if e := c.ex[b].Load(); e != nil {
						sb.WriteString(` # {release_id="`)
						sb.WriteString(escapeLabel(e.id))
						sb.WriteString(`"} `)
						sb.WriteString(formatFloat(e.v))
						sb.WriteByte(' ')
						sb.WriteString(strconv.FormatFloat(float64(e.ts.UnixNano())/1e9, 'f', 3, 64))
					}
				}
				sb.WriteByte('\n')
			}
			sb.WriteString(f.name)
			sb.WriteString("_sum")
			writeLabels(sb, f.labels, values, "", 0)
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(c.Sum()))
			sb.WriteByte('\n')
			sb.WriteString(f.name)
			sb.WriteString("_count")
			writeLabels(sb, f.labels, values, "", 0)
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatInt(c.Count(), 10))
			sb.WriteByte('\n')
		}
	}
}

func (f *family) header(sb *strings.Builder) {
	sb.WriteString("# HELP ")
	sb.WriteString(f.name)
	sb.WriteByte(' ')
	sb.WriteString(escapeHelp(f.help))
	sb.WriteByte('\n')
	sb.WriteString("# TYPE ")
	sb.WriteString(f.name)
	sb.WriteByte(' ')
	sb.WriteString(string(f.kind))
	sb.WriteByte('\n')
}

// writeLabels renders {a="x",b="y"}. With trailing == "le" and extra ==
// -1 it leaves the brace open ending in a comma (or just "{") so the
// caller can append the le pair — keeping the histogram hot loop free of
// slice allocation.
func writeLabels(sb *strings.Builder, names, values []string, trailing string, extra int) {
	if len(names) == 0 && trailing == "" {
		return
	}
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if trailing != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		return // caller completes `le="..."}`
	}
	sb.WriteByte('}')
}

// labelSep joins label values into child map keys; 0x1f (unit
// separator) cannot appear in reasonable label values, and even if it
// does the worst case is two label sets sharing a child, never a panic.
const labelSep = "\x1f"

func joinLabelValues(values []string) string { return strings.Join(values, labelSep) }

func splitLabelValues(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, labelSep, n)
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value: shortest round-trip form, +Inf
// and -Inf spelled the Prometheus way.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
