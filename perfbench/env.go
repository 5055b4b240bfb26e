package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

const (
	tenantID = "bench"
	feedID   = "feed" // side tenant of the ingest stream when it does not target the measured tenant
)

// env is one in-process server behind a loopback listener, with the
// workload's tenant provisioned.
type env struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when the listener's Serve returns
	base   string
	hc     *http.Client
	feed   string // tenant the ingest stream writes to
}

// openEnv opens a server (durable on dataDir when it is set), serves it
// on a loopback port, and provisions the workload tenant: creation,
// table, and the seeded rows. The returned duration is setup_s's sample.
func openEnv(wl workload, seed uint64, dataDir string) (*env, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.Open(serve.Options{Seed: seed, DataDir: dataDir})
	if err != nil {
		return nil, 0, fmt.Errorf("perfbench: opening server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, 0, fmt.Errorf("perfbench: listening: %w", err)
	}
	e := &env{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 64},
		},
		feed: tenantID,
	}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln)
	}()
	if err := e.provision(wl, seed); err != nil {
		_ = e.close()
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

// provision creates the workload tenant with its seeded table, and the
// side feed tenant when the ingest stream needs one.
func (e *env) provision(wl workload, seed uint64) error {
	if err := e.createTenant(tenantID, wl); err != nil {
		return err
	}
	rows := tableRows(wl, seed)
	const batch = 2000
	for lo := 0; lo < len(rows); lo += batch {
		hi := min(lo+batch, len(rows))
		if err := e.insert(tenantID, rows[lo:hi]); err != nil {
			return err
		}
	}
	if !wl.ingestOwn {
		e.feed = feedID
		return e.createTenant(feedID, wl)
	}
	return nil
}

// createTenant creates a tenant with a budget no run can exhaust and the
// empty workload table.
func (e *env) createTenant(id string, wl workload) error {
	req := serve.CreateTenantRequest{ID: id, Epsilon: 1e12, Accounting: wl.accounting, Shards: wl.shards}
	if status, body, err := e.post("/v1/tenants", mustJSON(req)); err != nil || status != http.StatusCreated {
		return fmt.Errorf("perfbench: creating tenant %s: HTTP %d %s %v", id, status, body, err)
	}
	table := serve.CreateTableRequest{Name: "metrics", Columns: tableColumns, UserColumn: "uid"}
	if status, body, err := e.post("/v1/tenants/"+id+"/tables", mustJSON(table)); err != nil || status != http.StatusCreated {
		return fmt.Errorf("perfbench: creating table for %s: HTTP %d %s %v", id, status, body, err)
	}
	return nil
}

func (e *env) insert(id string, rows [][]any) error {
	status, body, err := e.post("/v1/tenants/"+id+"/tables/metrics/rows", mustJSON(serve.InsertRowsRequest{Rows: rows}))
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("perfbench: inserting rows into %s: HTTP %d %s %v", id, status, body, err)
	}
	return nil
}

// post sends one JSON body and returns the status and the whole reply.
func (e *env) post(path string, body []byte) (int, []byte, error) {
	resp, err := e.hc.Post(e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// get fetches path and decodes a 200 JSON reply into out, or returns the
// raw body when out is nil.
func (e *env) get(path string, out any) ([]byte, error) {
	resp, err := e.hc.Get(e.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("perfbench: GET %s: HTTP %d", path, resp.StatusCode)
	}
	if out != nil {
		return data, json.Unmarshal(data, out)
	}
	return data, nil
}

// tenantSpend reads the tenant's native spend and its audit log total.
func (e *env) tenantSpend() (float64, uint64, error) {
	var st serve.TenantStatus
	if _, err := e.get("/v1/tenants/"+tenantID, &st); err != nil {
		return 0, 0, err
	}
	var audit serve.AuditResponse
	if _, err := e.get("/v1/tenants/"+tenantID+"/audit?limit=1", &audit); err != nil {
		return 0, 0, err
	}
	return st.Spent, audit.Total, nil
}

// scrape parses GET /metrics into sample values keyed by the series'
// name and labels as rendered, e.g. `updp_wal_bytes_total` or
// `updp_release_stage_seconds_sum{stage="scan"}`.
func (e *env) scrape() (map[string]float64, error) {
	data, err := e.get("/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(data)), nil
}

func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// An exemplar suffix (" # {...} v") never appears: the server
		// renders exemplars only when asked to.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}

// close stops the listener, waits for in-flight handlers, and closes the
// server (a durable server compacts a final snapshot).
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	<-e.served
	e.hc.CloseIdleConnections()
	return errors.Join(err, e.srv.Close())
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding %T: %v", v, err)) // only fixed benchmark types are encoded
	}
	return b
}
