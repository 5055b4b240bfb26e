package obs

import (
	"testing"
	"time"
)

// BenchmarkHistogramObserve prices one observation into a latency
// histogram: plain Observe, and ObserveExemplar, the form the serve
// layer calls on every release stage (one extra pointer store).
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "benchmark latency", LatencyBuckets())
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(1e-3)
		}
	})
	b.Run("exemplar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveExemplar(1e-3, "r-bench")
		}
	})
}

// BenchmarkRecorderRecord prices retaining one completed trace in the
// flight recorder, into the recent ring and into the tail ring.
func BenchmarkRecorderRecord(b *testing.B) {
	rec := NewRecorder(256)
	trace := &RecordedTrace{ID: "r-bench", Tenant: "acme", Path: "estimate", Status: 200, Outcome: "ok", Start: time.Now(), Total: time.Millisecond}
	for _, tail := range []bool{false, true} {
		name := "recent"
		if tail {
			name = "tail"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Record(trace, tail)
			}
		})
	}
}
