package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Recorder is the flight recorder: a fixed-size, lock-free ring of
// recently completed traces, tail-sampled so the traces an operator
// actually wants — slow, errored, shed — are never evicted by the flood
// of healthy ones. Two rings share the work:
//
//   - the recent ring keeps the last N traces of any kind, so "show me
//     what the service is doing right now" always has material;
//   - the tail ring keeps the last N noteworthy traces (the caller
//     decides what is noteworthy: over the slow threshold, status >= 500,
//     shed), so a burst of fast healthy releases can never push the one
//     slow release an operator is hunting out of memory.
//
// Writes are wait-free: one atomic counter add picks the slot, one
// atomic pointer store publishes the trace. Reads (the /v1/traces
// handlers, an incident bundle) walk the slots with atomic loads — a
// read racing a write sees the old trace or the new one, both complete.
// Memory is bounded at 2N trace pointers regardless of load; beyond N
// noteworthy traces the oldest noteworthy ones are evicted (the ring
// retains 100% of the tail only while it fits, which is what a fixed
// memory budget can promise).
type Recorder struct {
	recent ring
	tail   ring
}

// RecordedTrace is one completed release's retained record: the
// envelope the serve layer stamps (tenant, path, mechanism, status,
// outcome) plus the frozen span tree. Immutable once recorded.
type RecordedTrace struct {
	ID      string
	Tenant  string
	Path    string
	Mech    string
	Status  int
	Outcome string // "ok", "slow", "error", or "shed"
	Start   time.Time
	Total   time.Duration
	Spans   []Span
}

type ring struct {
	slots []atomic.Pointer[RecordedTrace]
	next  atomic.Uint64
}

func (r *ring) store(rt *RecordedTrace) {
	slot := (r.next.Add(1) - 1) % uint64(len(r.slots))
	r.slots[slot].Store(rt)
}

func (r *ring) collect(out []*RecordedTrace) []*RecordedTrace {
	for i := range r.slots {
		if rt := r.slots[i].Load(); rt != nil {
			out = append(out, rt)
		}
	}
	return out
}

// NewRecorder returns a recorder retaining the last n traces plus the
// last n noteworthy (slow/error/shed) traces. n <= 0 defaults to 256.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = 256
	}
	return &Recorder{
		recent: ring{slots: make([]atomic.Pointer[RecordedTrace], n)},
		tail:   ring{slots: make([]atomic.Pointer[RecordedTrace], n)},
	}
}

// Record retains one completed trace. tail marks it noteworthy (slow,
// errored, or shed): noteworthy traces go to the tail ring, where only
// other noteworthy traces can evict them. Wait-free.
func (r *Recorder) Record(rt *RecordedTrace, tail bool) {
	if tail {
		r.tail.store(rt)
		return
	}
	r.recent.store(rt)
}

// Traces returns every retained trace, newest first. Each trace lives
// in exactly one ring, so there are no duplicates to collapse.
func (r *Recorder) Traces() []*RecordedTrace {
	out := make([]*RecordedTrace, 0, 2*len(r.recent.slots))
	out = r.recent.collect(out)
	out = r.tail.collect(out)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].ID > out[j].ID
	})
	return out
}

// Get retrieves a retained trace by release ID (the X-Release-Id header
// value). A linear scan over at most 2N slots — retrieval is a human
// debugging action, not a hot path.
func (r *Recorder) Get(id string) (*RecordedTrace, bool) {
	for _, ring := range []*ring{&r.tail, &r.recent} {
		for i := range ring.slots {
			if rt := ring.slots[i].Load(); rt != nil && rt.ID == id {
				return rt, true
			}
		}
	}
	return nil, false
}
