package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Parent 0 is a root. Req
// ties the spans of one request together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// open starts a span whose children are recorded before it ends; the
// returned func closes it.
func (t *tracer) open(name string, parent int, req string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id := t.add(name, parent, req, start, start)
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = int64(end.Sub(t.t0))
		t.mu.Unlock()
	}
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, req string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, req, start, end)
	return end.Sub(start)
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (overlapping children counted once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		slices.SortFunc(cs, func(a, b span) int { return int(a.Start - b.Start) })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// write saves the spans as JSON lines, each with its self time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: writing spans: %w", err)
	}
	self := selfTimes(t.spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, int64(self[s.ID])}); err != nil {
			_ = f.Close()
			return fmt.Errorf("perfbench: writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("perfbench: writing spans: %w", err)
	}
	return f.Close()
}
