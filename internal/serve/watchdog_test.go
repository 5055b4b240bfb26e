package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWatchdogIncidentBundle: an induced p99 breach (1ns SLO — every
// release breaches) produces exactly one incident bundle containing the
// CPU, heap, and goroutine profiles plus the metrics scrape and the
// retained traces; the cooldown suppresses retriggering.
func TestWatchdogIncidentBundle(t *testing.T) {
	dir := t.TempDir()
	srv := mustOpen(t, Options{
		Seed:             21,
		Workers:          2,
		SLOLatency:       time.Nanosecond,
		SLOWindow:        50 * time.Millisecond,
		SLOWindows:       1,
		IncidentDir:      dir,
		IncidentCooldown: time.Hour,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 1e6, 50)

	release := func(i int) {
		body := fmt.Sprintf(`{"table":"metrics","column":"v","stat":"mean","epsilon":%g}`, 0.1+float64(i)*1e-4)
		if code, _ := postRelease(t, ts.URL, "/v1/tenants/acme/estimate", body); code != http.StatusOK {
			t.Fatalf("estimate %d: status %d", i, code)
		}
	}

	// Keep traffic flowing until the watchdog fires (window 50ms, one
	// breaching window suffices). Deadline generously above the window.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; srv.watchdog.capturedCount() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never captured a bundle")
		}
		release(i)
		time.Sleep(10 * time.Millisecond)
	}

	// More breaching traffic across several windows: the cooldown must
	// suppress a second capture.
	for i := 0; i < 12; i++ {
		release(1000 + i)
		time.Sleep(15 * time.Millisecond)
	}
	if got := srv.watchdog.capturedCount(); got != 1 {
		t.Fatalf("captured %d bundles, want exactly 1 (cooldown)", got)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("incident dir holds %d entries, want 1", len(entries))
	}
	bundle := filepath.Join(dir, entries[0].Name())
	for _, f := range []string{"cpu.pprof", "heap.pprof", "goroutine.txt", "metrics.prom", "traces.json", "incident.json"} {
		st, err := os.Stat(filepath.Join(bundle, f))
		if err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("bundle file %s is empty", f)
		}
	}
	var meta struct {
		P99Ms float64 `json:"p99_ms"`
		SLOMs float64 `json:"slo_ms"`
	}
	b, err := os.ReadFile(filepath.Join(bundle, "incident.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.P99Ms <= meta.SLOMs {
		t.Errorf("incident.json records p99 %vms <= slo %vms", meta.P99Ms, meta.SLOMs)
	}
	var traces TraceListResponse
	tb, err := os.ReadFile(filepath.Join(bundle, "traces.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tb, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) == 0 {
		t.Error("bundle traces.json retained no releases")
	}
}

// TestWatchdogDisarmed: without SLO options no watchdog runs and the
// traces endpoint still works — observability features are independent.
func TestWatchdogDisarmed(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 22})
	defer srv.Close()
	if srv.watchdog != nil {
		t.Fatal("watchdog armed without SLOLatency/IncidentDir")
	}
}
