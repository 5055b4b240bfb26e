package store

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/internal/obs"
)

// BenchmarkCommitDeduct prices one durable deduction on the group-commit
// barrier with 8×GOMAXPROCS concurrent submitters, roughly a busy worker
// pool's worth of parked releases. entries/barrier is the mean batch
// size: how many deductions share each fsync.
func BenchmarkCommitDeduct(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := obs.NewRegistry().Histogram("batch", "entries per barrier", []float64{1})
	s.SetMetrics(&Metrics{BatchSize: batch})
	tl, err := s.CreateTenant("bench", TenantConfig{Epsilon: 1e12, Accounting: "pure"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := tl.CommitDeduct(dp.EpsCost(1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if n := batch.Count(); n > 0 {
		b.ReportMetric(batch.Sum()/float64(n), "entries/barrier")
	}
}

// Compaction input per BenchmarkCompact iteration: the tail a tenant
// accumulates between compactions, scaled down.
const (
	benchRowBatches  = 64 // rows records
	benchBatchRows   = 16 // rows per record
	benchDeductBatch = 4  // deductions per batch record, one after each rows record
)

// BenchmarkCompact prices one compaction (seal, replay, snapshot
// publish, segment deletion) of a fixed tail: 1024 rows in 64 records
// and 256 deductions in 64 batch records, with no previous snapshot.
// Each iteration writes the tail to a fresh tenant outside the timer.
func BenchmarkCompact(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rows := make([][]dpsql.Value, benchBatchRows)
	for i := range rows {
		rows[i] = row(fmt.Sprintf("u%02d", i), float64(i))
	}
	costs := make([]dp.Cost, benchDeductBatch)
	for i := range costs {
		costs[i] = dp.EpsCost(0.001)
	}
	cfg := testConfig()
	replay := testReplayer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := fmt.Sprintf("t%d", i)
		tl, err := s.CreateTenant(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tl.AppendTable(eventsSchema()); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < benchRowBatches; j++ {
			if err := tl.AppendRows("events", 0, rows); err != nil {
				b.Fatal(err)
			}
			if err := tl.append(record{Type: recBatch, Costs: costs}, false); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := tl.Compact(cfg, replay); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := tl.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(tl.dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
