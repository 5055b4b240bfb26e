package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// runSnapshotDuring is the direct measurement of the stall that off-path
// compaction removes: a durable tenant takes a steady stream of distinct
// (cache-defeating) releases, first with no compaction at all, then with
// compactions firing continuously in the background. Because compaction
// replays sealed immutable WAL segments without any tenant lock or the
// shard locks, the two phases should show the same release latency — the
// during/steady p99 ratio printed at the end is the number to watch.
// Compaction is the only snapshot writer (shutdown's Flush runs it too),
// so there is no capture of live state for releases to park behind.
//
// Combined with -shards sweep the drill runs once per shard count in
// {1, 4, 16}; alone it uses -shards (or the server default of 1).
func runSnapshotDuring(cfg loadgenConfig, counts []int) error {
	if cfg.target != "self" {
		return fmt.Errorf("loadgen: -snapshot-during needs -serve self (it owns the data dir and fires compactions in-process)")
	}
	type result struct {
		shards                 int
		steadyP50, steadyP99   time.Duration
		duringP50, duringP99   time.Duration
		compactions            int
		meanCompact            time.Duration
		steadyRate, duringRate float64 // releases/sec
	}
	var rows []result
	for _, n := range counts {
		r := result{shards: n}
		var err error
		r.steadyP50, r.steadyP99, r.steadyRate,
			r.duringP50, r.duringP99, r.duringRate,
			r.compactions, r.meanCompact, err = snapDuringOne(cfg, n)
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}

	fmt.Printf("=== snapshot-during: %d clients, %v per phase, %d users, eps/release=%g ===\n",
		cfg.clients, cfg.duration, cfg.users, cfg.eps)
	fmt.Printf("%-8s %12s %12s %12s %12s %10s %12s %13s\n",
		"shards", "steady p50", "steady p99", "during p50", "during p99", "p99 ratio", "compactions", "mean compact")
	for _, r := range rows {
		ratio := math.Inf(1)
		if r.steadyP99 > 0 {
			ratio = float64(r.duringP99) / float64(r.steadyP99)
		}
		fmt.Printf("%-8d %12v %12v %12v %12v %9.2fx %12d %13v\n",
			r.shards,
			r.steadyP50.Round(time.Microsecond), r.steadyP99.Round(time.Microsecond),
			r.duringP50.Round(time.Microsecond), r.duringP99.Round(time.Microsecond),
			ratio, r.compactions, r.meanCompact.Round(time.Microsecond))
	}
	fmt.Println("steady is release latency with no compaction; during is the same stream with background")
	fmt.Println("compactions (seal tail -> replay sealed segments -> publish snapshot) firing throughout the")
	fmt.Println("phase. Compaction never takes a tenant lock or the shard locks, so with a spare core for")
	fmt.Println("the compactor the p99 ratio should sit at ~1.00x — sustained excess there means hot-path")
	fmt.Println("work is leaking into the compactor's brief seal/install windows. On a single-core machine")
	fmt.Println("the ratio instead measures CPU competition from the replay itself (GOMAXPROCS(0)=" + fmt.Sprint(runtime.GOMAXPROCS(0)) + " here).")
	return nil
}

// snapDuringOne runs both phases for one shard count on a fresh durable
// server and returns (steady p50, p99, rate, during p50, p99, rate,
// compactions completed, mean compaction wall-time).
func snapDuringOne(cfg loadgenConfig, shards int) (time.Duration, time.Duration, float64, time.Duration, time.Duration, float64, int, time.Duration, error) {
	fail := func(err error) (time.Duration, time.Duration, float64, time.Duration, time.Duration, float64, int, time.Duration, error) {
		return 0, 0, 0, 0, 0, 0, 0, 0, err
	}
	dir, err := os.MkdirTemp("", "updp-snapduring-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	// SnapshotEvery is pushed out of reach so the steady phase is truly
	// compaction-free and the during phase's compactions are exactly the
	// ones the drill fires.
	srv, err := serve.Open(serve.Options{
		Seed:          cfg.seed,
		DataDir:       dir,
		QueueDepth:    4 * cfg.clients,
		SnapshotEvery: 1 << 30,
	})
	if err != nil {
		return fail(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{Timeout: 30 * time.Second}

	tenant := fmt.Sprintf("snapdrill-%d", shards)
	if err := provisionBench(cfg, hc, base, serve.CreateTenantRequest{
		ID: tenant, Epsilon: 1e9, Shards: shards,
		Accounting: cfg.accounting, Delta: cfg.delta, WindowSeconds: cfg.window,
	}); err != nil {
		return fail(err)
	}

	// phase hammers the tenant with distinct quantile releases (every one
	// charges, WAL-commits, and audits — no free cache replays) from
	// cfg.clients concurrent clients for cfg.duration, returning sorted
	// latencies. salt keeps the two phases' quantile ranks disjoint.
	phase := func(salt int, dur time.Duration) ([]time.Duration, float64, error) {
		var (
			mu   sync.Mutex
			lats []time.Duration
			errs int32
		)
		deadline := time.Now().Add(dur)
		var wg sync.WaitGroup
		for c := 0; c < cfg.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := &http.Client{Timeout: 30 * time.Second}
				var own []time.Duration
				for i := 0; time.Now().Before(deadline); i++ {
					p := 0.001 + 0.998*float64((salt*31+c*7919+i)%9973)/9973
					t0 := time.Now()
					code, err := jsonPost(cl, base, "/v1/tenants/"+tenant+"/estimate", serve.EstimateRequest{
						Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: cfg.eps,
					}, nil)
					if err != nil || code != http.StatusOK {
						atomic.AddInt32(&errs, 1)
						continue
					}
					own = append(own, time.Since(t0))
				}
				mu.Lock()
				lats = append(lats, own...)
				mu.Unlock()
			}(c)
		}
		t0 := time.Now()
		wg.Wait()
		elapsed := time.Since(t0).Seconds()
		if n := atomic.LoadInt32(&errs); n > 0 {
			return nil, 0, fmt.Errorf("loadgen: snapshot-during: %d releases failed", n)
		}
		if len(lats) == 0 {
			return nil, 0, fmt.Errorf("loadgen: snapshot-during: phase completed no releases; raise -duration")
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats, float64(len(lats)) / elapsed, nil
	}
	pct := func(lats []time.Duration, p float64) time.Duration {
		ix := int(math.Ceil(p*float64(len(lats)))) - 1
		if ix < 0 {
			ix = 0
		}
		return lats[ix]
	}

	// Warm-up (discarded): page in the HTTP stack and the allocator so
	// the steady phase is not charged for process warm-up.
	if _, _, err := phase(0, cfg.duration/4); err != nil {
		return fail(err)
	}

	// Phase 1: steady state — no compaction anywhere near the stream.
	steady, steadyRate, err := phase(1, cfg.duration)
	if err != nil {
		return fail(err)
	}

	// Phase 2: the same stream with compactions firing throughout. Each
	// release appends a deduct record, so every cycle has a fresh tail to
	// seal and replay. Compactions are paced (roughly a dozen per phase)
	// rather than back-to-back: the drill measures whether a compaction
	// in flight stalls releases, not how releases fare when a busy-loop
	// of compactors competes for every core.
	pace := cfg.duration / 12
	stop := make(chan struct{})
	var (
		compactions  int
		compactTotal time.Duration
		compErr      error
		compWg       sync.WaitGroup
	)
	compWg.Add(1)
	go func() {
		defer compWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			if err := srv.CompactTenant(tenant); err != nil {
				compErr = err
				return
			}
			compactTotal += time.Since(t0)
			compactions++
			select {
			case <-stop:
				return
			case <-time.After(pace):
			}
		}
	}()
	during, duringRate, err := phase(2, cfg.duration)
	close(stop)
	compWg.Wait()
	if err != nil {
		return fail(err)
	}
	if compErr != nil {
		return fail(fmt.Errorf("loadgen: snapshot-during: compaction failed: %w", compErr))
	}
	if compactions == 0 {
		return fail(fmt.Errorf("loadgen: snapshot-during: no compaction completed within the phase; raise -duration"))
	}
	return pct(steady, 0.50), pct(steady, 0.99), steadyRate,
		pct(during, 0.50), pct(during, 0.99), duringRate,
		compactions, compactTotal / time.Duration(compactions), nil
}
