package serve

import (
	"testing"

	"repro/internal/dp"
	"repro/internal/store"
)

// BenchmarkMemAuditAppend prices an in-memory tenant's audit append in
// the steady state: the log is filled to memAuditMax before the timer
// starts, so every timed append is past the cap, where Append copies the
// whole retention window. A ring buffer would make it O(1).
func BenchmarkMemAuditAppend(b *testing.B) {
	a := &memAudit{}
	rec := store.AuditRecord{
		ReleaseID: "bench",
		Path:      "estimate",
		Mechanism: "median",
		Cost:      dp.EpsCost(0.1),
		Unit:      "epsilon",
		TimeUnix:  1,
	}
	for range memAuditMax {
		r := rec
		if err := a.Append(&r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rec
		if err := a.Append(&r); err != nil {
			b.Fatal(err)
		}
	}
}
