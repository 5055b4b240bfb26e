package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// postRelease fires one release request and returns (status, release id).
func postRelease(t *testing.T, base, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Release-Id")
}

// TestTraceExplorerShardedRelease: a release on a sharded tenant leaves
// a retrievable trace whose scan stage carries one child span per shard,
// each tagged with its shard index and row count.
func TestTraceExplorerShardedRelease(t *testing.T) {
	const shards = 4
	srv := mustOpen(t, Options{Seed: 11, Workers: 4, DefaultShards: shards})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 10, 200)

	code, id := postRelease(t, ts.URL, "/v1/tenants/acme/estimate",
		`{"table":"metrics","column":"v","stat":"mean","epsilon":0.5}`)
	if code != http.StatusOK || id == "" {
		t.Fatalf("estimate: status %d id %q", code, id)
	}

	var detail TraceDetail
	if code := c.do("GET", "/v1/traces/"+id, nil, &detail); code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: status %d", id, code)
	}
	if detail.ID != id || detail.Tenant != "acme" || detail.Path != "estimate" {
		t.Fatalf("trace envelope = %+v", detail.TraceSummary)
	}
	var scan *TraceSpan
	for _, sp := range detail.Spans {
		if sp.Stage == "scan" {
			scan = sp
		}
	}
	if scan == nil {
		t.Fatalf("no scan span in %+v", detail.Spans)
	}
	if len(scan.Children) != shards {
		t.Fatalf("scan has %d child spans, want one per shard (%d): %+v",
			len(scan.Children), shards, scan.Children)
	}
	seenShard := map[int64]bool{}
	var rows int64
	for _, ch := range scan.Children {
		if ch.Stage != "scan_shard" {
			t.Errorf("scan child stage = %q", ch.Stage)
		}
		si, ok := ch.Attrs["shard"]
		if !ok || seenShard[si] {
			t.Errorf("shard attr missing or repeated: %+v", ch.Attrs)
		}
		seenShard[si] = true
		rows += ch.Attrs["rows"]
	}
	if rows != 400 { // 200 users × 2 rows each
		t.Errorf("per-shard rows sum to %d, want 400", rows)
	}

	// The listing carries the same release, and the filters work.
	var list TraceListResponse
	if code := c.do("GET", "/v1/traces?tenant=acme", nil, &list); code != http.StatusOK || len(list.Traces) == 0 {
		t.Fatalf("list: status %d traces %d", code, len(list.Traces))
	}
	if code := c.do("GET", "/v1/traces?tenant=nobody", nil, &list); code != http.StatusOK || len(list.Traces) != 0 {
		t.Fatalf("tenant filter leaked: %+v", list.Traces)
	}
	if code := c.do("GET", "/v1/traces?min_ms=1e9", nil, &list); code != http.StatusOK || len(list.Traces) != 0 {
		t.Fatalf("min_ms filter leaked: %+v", list.Traces)
	}
	var apiErr struct {
		Code string `json:"code"`
	}
	if code := c.do("GET", "/v1/traces/r-nope-0", nil, &apiErr); code != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Fatalf("unknown id: status %d code %q", code, apiErr.Code)
	}
}

// scanSpan fetches release id's trace and returns its scan span.
func scanSpan(t *testing.T, c *client, id string) *TraceSpan {
	t.Helper()
	var detail TraceDetail
	if code := c.do("GET", "/v1/traces/"+id, nil, &detail); code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: status %d", id, code)
	}
	for _, sp := range detail.Spans {
		if sp.Stage == "scan" {
			return sp
		}
	}
	t.Fatalf("no scan span in %+v", detail.Spans)
	return nil
}

// TestTraceCachedFoldHasNoShardSpans: a second same-shape /estimate on
// an unchanged sharded table reads the table's cached per-user fold, so
// its scan span has no scan_shard children; after an ingest the fold is
// recomputed and the scan carries one child per shard again. Each
// request asks a different ε, so none is a response-cache replay.
func TestTraceCachedFoldHasNoShardSpans(t *testing.T) {
	const shards = 4
	srv := mustOpen(t, Options{Seed: 12, Workers: 4, DefaultShards: shards})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 10, 200)

	children := func(eps string) int {
		t.Helper()
		code, id := postRelease(t, ts.URL, "/v1/tenants/acme/estimate",
			`{"table":"metrics","column":"v","stat":"mean","epsilon":`+eps+`}`)
		if code != http.StatusOK || id == "" {
			t.Fatalf("estimate eps=%s: status %d id %q", eps, code, id)
		}
		return len(scanSpan(t, c, id).Children)
	}
	if n := children("0.5"); n != shards {
		t.Fatalf("first estimate: %d scan_shard spans, want %d", n, shards)
	}
	if n := children("0.25"); n != 0 {
		t.Fatalf("estimate on an unchanged table: %d scan_shard spans, want 0", n)
	}
	var ins InsertRowsResponse
	row := InsertRowsRequest{Rows: [][]any{{"u00003", 101.5, 7.0, "b"}}}
	if code := c.do("POST", "/v1/tenants/acme/tables/metrics/rows", row, &ins); code != http.StatusOK || ins.Inserted != 1 {
		t.Fatalf("insert: status %d, inserted %d", code, ins.Inserted)
	}
	if n := children("0.3"); n != shards {
		t.Fatalf("estimate after an ingest: %d scan_shard spans, want %d", n, shards)
	}
}

// TestSlowReleaseLogAndRetrieval (satellite): a release forced over
// SlowRelease emits exactly one structured log line carrying the release
// id, and that id retrieves the full trace from GET /v1/traces/{id}.
func TestSlowReleaseLogAndRetrieval(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 12, Workers: 2, SlowRelease: time.Nanosecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 10, 100)

	prev := log.Writer()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	code, id := postRelease(t, ts.URL, "/v1/tenants/acme/query",
		`{"sql":"SELECT AVG(v) FROM metrics","epsilon":0.5}`)
	log.SetOutput(prev)
	if code != http.StatusOK || id == "" {
		t.Fatalf("query: status %d id %q", code, id)
	}

	lines := 0
	for _, ln := range strings.Split(buf.String(), "\n") {
		if strings.Contains(ln, "slow release id=") {
			lines++
			if !strings.Contains(ln, "id="+id+" ") {
				t.Errorf("slow line does not carry the release id %q: %s", id, ln)
			}
			for _, stage := range []string{"scan=", "noise=", "deduct="} {
				if !strings.Contains(ln, stage) {
					t.Errorf("slow line missing %s span: %s", stage, ln)
				}
			}
			if strings.Contains(ln, "scan_shard") {
				t.Errorf("slow line leaked per-shard child spans: %s", ln)
			}
		}
	}
	if lines != 1 {
		t.Fatalf("want exactly one slow-release line, got %d:\n%s", lines, buf.String())
	}

	var detail TraceDetail
	if code := c.do("GET", "/v1/traces/"+id, nil, &detail); code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: status %d", id, code)
	}
	if detail.Outcome != "slow" {
		t.Errorf("outcome = %q, want slow", detail.Outcome)
	}
}

// TestRecorderRetainsSlowUnderLoad: under concurrent load every
// noteworthy (here: slow) release survives in the recorder, and a
// second flood on a small ring stays bounded at the ring cap.
func TestRecorderRetainsSlowUnderLoad(t *testing.T) {
	// Phase 1: every release is slow (threshold 1ns); all must be
	// retrievable afterwards — tail-sampling never drops them while they
	// fit the ring.
	srv := mustOpen(t, Options{Seed: 13, Workers: 4, SlowRelease: time.Nanosecond, TraceRing: 64})
	ts := httptest.NewServer(srv)
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 1e6, 100)
	prev := log.Writer()
	log.SetOutput(io.Discard) // every release logs a slow line here
	defer log.SetOutput(prev)

	const n = 48
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct ε per request so no release replays from the
			// response cache — each one runs the full pipeline.
			body := fmt.Sprintf(`{"table":"metrics","column":"v","stat":"mean","epsilon":%g}`, 0.1+float64(i)*1e-4)
			code, id := postRelease(t, ts.URL, "/v1/tenants/acme/estimate", body)
			if code != http.StatusOK {
				t.Errorf("estimate %d: status %d", i, code)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			continue // request already failed the test above
		}
		var detail TraceDetail
		if code := c.do("GET", "/v1/traces/"+id, nil, &detail); code != http.StatusOK {
			t.Errorf("slow release %s dropped from the recorder", id)
		}
	}
	ts.Close()
	srv.Close()

	// Phase 2: a flood of healthy releases on a small ring stays bounded
	// at the cap (nothing noteworthy, so only the recent ring fills).
	srv2 := mustOpen(t, Options{Seed: 14, Workers: 4, SlowRelease: -1, TraceRing: 16})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := newClient(t, ts2.URL)
	seedTenant(t, c2, "acme", 1e6, 50)
	for i := 0; i < 100; i++ {
		body := fmt.Sprintf(`{"table":"metrics","column":"v","stat":"mean","epsilon":%g}`, 0.1+float64(i)*1e-4)
		if code, _ := postRelease(t, ts2.URL, "/v1/tenants/acme/estimate", body); code != http.StatusOK {
			t.Fatalf("estimate %d: status %d", i, code)
		}
	}
	var list TraceListResponse
	if code := c2.do("GET", "/v1/traces", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if got := len(list.Traces); got > 2*16 || got < 16 {
		t.Fatalf("retained %d traces after 100 releases on a 16-ring, want within [16, 32]", got)
	}

	var decoded map[string]any
	b, _ := json.Marshal(list.Traces[0])
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("summary not JSON-round-trippable: %v", err)
	}
}
