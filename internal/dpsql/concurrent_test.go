package dpsql

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dp"
	"repro/internal/xrand"
)

func newPopulatedDB(t *testing.T, users, rowsPer int) *DB {
	t.Helper()
	db := NewDB()
	if err := db.Run("CREATE TABLE events (uid STRING USER, v FLOAT, grp STRING)"); err != nil {
		t.Fatal(err)
	}
	tab, err := db.TableByName("events")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	for u := 0; u < users; u++ {
		for r := 0; r < rowsPer; r++ {
			g := "a"
			if u%2 == 1 {
				g = "b"
			}
			err := tab.Insert(Str(fmt.Sprintf("u%04d", u)), Float(100+rng.Gaussian()), Str(g))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// Parallel Exec against a shared DB: every query must succeed and return a
// sane release while others run. Run with -race.
func TestExecConcurrent(t *testing.T) {
	db := newPopulatedDB(t, 200, 3)
	queries := []string{
		"SELECT AVG(v) FROM events",
		"SELECT COUNT(*) FROM events",
		"SELECT MEDIAN(v) FROM events GROUP BY grp",
		"SELECT SUM(v) FROM events WHERE grp = 'a'",
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := xrand.New(uint64(1000 + i))
			res, err := db.Exec(rng, queries[i%len(queries)], 1.0)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			if len(res.Rows) == 0 {
				t.Errorf("worker %d: empty result", i)
			}
		}(i)
	}
	wg.Wait()
}

// Queries racing streaming ingestion: Exec sees a consistent snapshot and
// never fails, even as Insert grows the table under it. Run with -race.
func TestExecDuringInsert(t *testing.T) {
	db := newPopulatedDB(t, 50, 2)
	tab, err := db.TableByName("events")
	if err != nil {
		t.Fatal(err)
	}
	p := newPacer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, ok := p.next()
				if !ok {
					return
				}
				uid := fmt.Sprintf("w%d-%d", w, i)
				if err := tab.Insert(Str(uid), Float(99.5), Str("a")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				p.done.Add(1)
			}
		}(w)
	}
	overlapped := 0
	for i := 0; i < 50; i++ {
		rng := xrand.New(uint64(i))
		if p.read(t, 200, func() {
			if _, err := db.Exec(rng, "SELECT AVG(v) FROM events", 0.5); err != nil {
				t.Errorf("exec %d: %v", i, err)
			}
		}) {
			overlapped++
		}
	}
	p.close()
	wg.Wait()
	t.Logf("%d reads ran beside a completed insert; %d rows inserted", overlapped, p.done.Load())
}

// A shared budget enforced across racing queries: no overdraw, ever.
func TestExecConcurrentBudget(t *testing.T) {
	db := newPopulatedDB(t, 100, 1)
	const perQuery = 0.5
	const allowed = 20
	if err := db.SetBudget(allowed * perQuery); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, refused := 0, 0
	for i := 0; i < 2*allowed; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := xrand.New(uint64(i))
			_, err := db.Exec(rng, "SELECT AVG(v) FROM events", perQuery)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, dp.ErrBudgetExhausted):
				refused++
			default:
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if ok != allowed || refused != allowed {
		t.Errorf("ok=%d refused=%d, want %d each", ok, refused, allowed)
	}
}

// A statically invalid WHERE clause (unknown column, incomparable kinds)
// must be refused before the budget Spend: data-independent mistakes are
// free, per the serve layer's budget model.
func TestInvalidWhereCostsNoBudget(t *testing.T) {
	db := newPopulatedDB(t, 20, 1)
	if err := db.SetBudget(10); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	for _, sql := range []string{
		"SELECT AVG(v) FROM events WHERE nosuch > 1",
		"SELECT AVG(v) FROM events WHERE grp > 5",
		"SELECT AVG(v) FROM events WHERE v = 'abc'",
	} {
		if _, err := db.Exec(rng, sql, 1.0); err == nil {
			t.Errorf("%q: want error", sql)
		}
	}
	if rem := db.Remaining(); rem != 10 {
		t.Errorf("invalid WHERE clauses consumed budget: remaining %v, want 10", rem)
	}
	// A valid WHERE still works and is charged.
	if _, err := db.Exec(rng, "SELECT AVG(v) FROM events WHERE grp = 'a'", 1.0); err != nil {
		t.Fatal(err)
	}
	if rem := db.Remaining(); rem != 9 {
		t.Errorf("remaining %v, want 9", rem)
	}
}

// Concurrent UserMeans readers racing ingestion must be race-free too
// (the serve layer's estimate path).
func TestUserMeansDuringInsert(t *testing.T) {
	db := newPopulatedDB(t, 50, 2)
	tab, err := db.TableByName("events")
	if err != nil {
		t.Fatal(err)
	}
	p := newPacer()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			i, ok := p.next()
			if !ok {
				return
			}
			if err := tab.Insert(Str(fmt.Sprintf("x%d", i)), Float(1), Str("b")); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			p.done.Add(1)
		}
	}()
	overlapped := 0
	for i := 0; i < 200; i++ {
		var xs []float64
		var err error
		if p.read(t, 50, func() { xs, err = tab.UserMeans("v") }) {
			overlapped++
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(xs) < 50 {
			t.Errorf("lost users: %d", len(xs))
		}
	}
	p.close()
	wg.Wait()
	t.Logf("%d reads ran beside a completed insert; %d rows inserted", overlapped, p.done.Load())
}

// pacer lets writers race a reader without outgrowing it. The writers run
// until close, so every read runs beside live inserts, but each read
// releases only a fixed quota of further inserts. Unpaced writers that
// outrun a reader whose work is linear in the table grow the table, and
// with it each read, without limit.
type pacer struct {
	quota, taken, done atomic.Int64
	seen               int64 // done after the previous read
	stop               chan struct{}
}

func newPacer() *pacer { return &pacer{stop: make(chan struct{})} }

// next reserves the next insert and returns its sequence number, waiting
// while the quota is spent; ok is false once the pacer is closed. A writer
// adds 1 to done after each insert.
func (p *pacer) next() (i int64, ok bool) {
	for {
		select {
		case <-p.stop:
			return 0, false
		default:
		}
		i := p.taken.Load()
		if i < p.quota.Load() && p.taken.CompareAndSwap(i, i+1) {
			return i, true
		}
		runtime.Gosched()
	}
}

// read releases quota more inserts, waits until an insert has completed
// since the previous read (so reads and writes interleave even when the
// scheduler favours the reader), runs f, and reports whether an insert
// also completed while f ran.
func (p *pacer) read(t *testing.T, quota int64, f func()) bool {
	p.quota.Add(quota)
	for p.done.Load() == p.seen && !t.Failed() {
		runtime.Gosched()
	}
	before := p.done.Load()
	f()
	p.seen = p.done.Load()
	return p.seen != before
}

func (p *pacer) close() { close(p.stop) }
