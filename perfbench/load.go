package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"repro/internal/serve"
)

// sender sends one release to the tenant and returns the status, the
// reply body and the release id the server assigned.
type sender func(r request) (int, []byte, string, error)

// httpSender sends over the loopback listener.
func httpSender(e *env) sender {
	return func(r request) (int, []byte, string, error) {
		resp, err := e.hc.Post(e.base+r.path(tenantID), "application/json", bytes.NewReader(mustJSON(r.body)))
		if err != nil {
			return 0, nil, "", err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), resp.Header.Get("X-Release-Id"), err
	}
}

// handlerSender calls the server's handler directly with an in-process
// recorder: the serve layer without HTTP.
func handlerSender(srv *serve.Server) sender {
	return func(r request) (int, []byte, string, error) {
		req := httptest.NewRequest(http.MethodPost, r.path(tenantID), bytes.NewReader(mustJSON(r.body)))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), rec.Header().Get("X-Release-Id"), nil
	}
}

// maxErrs bounds the failure messages a tally keeps.
const maxErrs = 5

// tally is what one or more clients saw.
type tally struct {
	attempted, failed int
	lats              []time.Duration // releases answered 200 that passed the checks
	ends              []time.Time     // when each of lats completed
	charged           int             // of those, the ones the ledger charged
	cost              float64         // their summed native cost
	errs              []error         // the first maxErrs failures
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, err)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.lats = append(t.lats, o.lats...)
	t.ends = append(t.ends, o.ends...)
	t.charged += o.charged
	t.cost += o.cost
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)[:min(maxErrs, len(t.errs)+len(o.errs))]
}

// loop drives closed-loop clients through one sender.
type loop struct {
	send       sender
	chk        checker
	accounting string
	tr         *tracer // nil records no spans
	span       string  // span name of one release
}

// drive runs one goroutine per client; client c sends reqs(c, j) for
// j = 0, 1, … until reqs reports no more or the deadline passes, each
// request only after the previous one answered. It returns each client's
// tally.
func (l loop) drive(clients int, deadline time.Time, reqs func(c, j int) (request, bool)) []tally {
	out := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ta := &out[c]
			for j := 0; time.Now().Before(deadline); j++ {
				r, ok := reqs(c, j)
				if !ok {
					return
				}
				ta.attempted++
				t0 := time.Now()
				status, body, id, err := l.send(r)
				lat := time.Since(t0)
				l.tr.add(l.span, 0, id, t0, t0.Add(lat))
				if err != nil {
					ta.fail(fmt.Errorf("%s: %w", r.kind, err))
					continue
				}
				o := l.chk.check(r, status, body)
				if o.err != nil {
					ta.fail(o.err)
					continue
				}
				ta.lats = append(ta.lats, lat)
				ta.ends = append(ta.ends, t0.Add(lat))
				if o.charged {
					ta.charged++
					ta.cost += r.cost(l.accounting)
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

func sum(ts []tally) tally {
	var all tally
	for _, t := range ts {
		all.merge(t)
	}
	return all
}

// ingestLate is the lateness past which a row batch counts as failed.
const ingestLate = time.Second

// ingestWorkers bounds the batches in flight; a batch due while all of
// them are busy waits, and its wait counts in its latency.
const ingestWorkers = 4

// ingestResult is what the open-loop row-batch stream saw.
type ingestResult struct {
	tally
	maxLag time.Duration // largest delay between a batch's due time and its dispatch
}

// ingest sends window×ingestRate row batches at a fixed rate regardless
// of how fast the server answers, timing each from its due time.
func ingest(e *env, wl workload, seed uint64, window time.Duration) ingestResult {
	n := int(window.Seconds() * ingestRate)
	type job struct {
		k   int
		due time.Time
	}
	jobs := make(chan job, n) // sized to the number of sends: the dispatcher never blocks
	res := make([]tally, ingestWorkers)
	var wg sync.WaitGroup
	for w := range res {
		wg.Add(1)
		go func(ta *tally) {
			defer wg.Done()
			for jb := range jobs {
				ta.attempted++
				if err := e.insert(e.feed, ingestBatch(wl, seed, jb.k)); err != nil {
					ta.fail(err)
					continue
				}
				lat := time.Since(jb.due)
				if lat > ingestLate {
					ta.fail(fmt.Errorf("ingest batch %d answered %v after its due time", jb.k, lat))
					continue
				}
				ta.lats = append(ta.lats, lat)
				ta.ends = append(ta.ends, jb.due.Add(lat))
			}
		}(&res[w])
	}
	var lag time.Duration
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / ingestRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		lag = max(lag, time.Since(due))
		jobs <- job{k: k, due: due}
	}
	close(jobs)
	wg.Wait()
	return ingestResult{tally: sum(res), maxLag: lag}
}

// percentile returns the p-quantile of the samples (nearest rank) in
// milliseconds, or NaN when there are none.
func percentile(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return math.NaN()
	}
	s := slices.Clone(lats)
	slices.Sort(s)
	ix := max(0, int(math.Ceil(p*float64(len(s))))-1)
	return ms(s[ix])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
