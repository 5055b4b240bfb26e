package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is a request-scoped span collector: one per release, carrying
// the release ID from the HTTP handler through the dpsql fan-out, the
// mechanism, and the store fsync. Spans form a shallow tree: the coarse
// pipeline stages ("scan", "deduct") are roots, and work that resolves
// below a stage — one shard of a fanned scan, the fsync inside a commit
// barrier — records as a child naming its parent stage. The operator
// question graduates from "where did the 40ms go" to "which shard
// straggled inside the scan", and the tree is retained by a Recorder so
// the question can be asked after the fact.
type Trace struct {
	ID    string
	start time.Time

	mu    sync.Mutex
	spans []Span
	end   time.Time // frozen by Finish; zero while the release is in flight
}

// Attr is one integer attribute on a span ("shard"=3, "rows"=12840).
// Integer-valued because every attribute the release path records is a
// count or an index; strings belong on the trace's recorded envelope
// (tenant, path, mechanism), not on spans.
type Attr struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// Span is one completed piece of a release. Parent names the stage this
// span nests under ("" for a root stage); linking by stage name rather
// than span index lets children record before their parent closes —
// a fanned shard span completes before the enclosing "scan" stage does.
// Start is the offset from the trace's start (derived at record time, so
// concurrent recording stays lock-free on the caller's side).
type Span struct {
	Stage  string        `json:"stage"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start"`
	D      time.Duration `json:"d"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// NewTrace starts a trace for the given release ID (use NewID).
func NewTrace(id string) *Trace {
	return &Trace{ID: id, start: time.Now()}
}

// Start reports when the trace began.
func (t *Trace) Start() time.Time { return t.start }

// Observe records an already-measured root stage duration.
func (t *Trace) Observe(stage string, d time.Duration) {
	t.ObserveChild(stage, "", d)
}

// ObserveChild records an already-measured span under the named parent
// stage. The span's start offset is derived from the record time (now −
// duration), which is exact for the spans the release path records at
// their own completion.
func (t *Trace) ObserveChild(stage, parent string, d time.Duration, attrs ...Attr) {
	start := time.Since(t.start) - d
	if start < 0 {
		start = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: stage, Parent: parent, Start: start, D: d, Attrs: attrs})
	t.mu.Unlock()
}

// Spans returns the recorded spans in completion order.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Finish freezes the trace's end time. Idempotent: the first call wins,
// so a total read later (slow-log formatting, retained-trace JSON)
// reports the real end-to-end latency instead of inflating with the
// reader's clock.
func (t *Trace) Finish() {
	t.mu.Lock()
	if t.end.IsZero() {
		t.end = time.Now()
	}
	t.mu.Unlock()
}

// Total is the end-to-end release latency: wall time from start to
// Finish, frozen once the release completes. Before Finish it reads the
// live clock (the release is still running). Not the sum of spans —
// stages overlap with untimed glue.
func (t *Trace) Total() time.Duration {
	t.mu.Lock()
	end := t.end
	t.mu.Unlock()
	if end.IsZero() {
		return time.Since(t.start)
	}
	return end.Sub(t.start)
}

// String renders "stage=1.2ms stage=800µs ..." for the slow-release log
// line — root stages only, so a 16-shard fan-out does not turn the line
// into a wall of per-shard entries (the full tree is in the retained
// trace, keyed by the same release ID the line carries).
func (t *Trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sb strings.Builder
	for _, s := range t.spans {
		if s.Parent != "" {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", s.Stage, s.D.Round(time.Microsecond))
	}
	return sb.String()
}

// Release IDs: "r-<6 random hex>-<counter>". The random prefix is drawn
// once per process so IDs from different server incarnations never
// collide in aggregated logs; the counter makes them cheap and ordered
// within a process. Nothing secret rides on them — they name releases
// in logs, response headers, and the audit trail.
var (
	idPrefix = func() string {
		var b [3]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to a clock-derived prefix; uniqueness within the
			// process still holds via the counter.
			now := time.Now().UnixNano()
			b[0], b[1], b[2] = byte(now>>16), byte(now>>8), byte(now)
		}
		return hex.EncodeToString(b[:])
	}()
	idCounter atomic.Uint64
)

// NewID returns a fresh process-unique release ID.
func NewID() string {
	return fmt.Sprintf("r-%s-%d", idPrefix, idCounter.Add(1))
}
