package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeReplica answers /api/olap with its own tag and counts hits, so
// tests can observe distribution and failover.
func fakeReplica(t *testing.T, tag string, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/health":
			w.Write([]byte(`{"status":"ok"}`))
		case "/api/olap":
			body, _ := io.ReadAll(r.Body)
			hits.Add(1)
			fmt.Fprintf(w, "%s:%s", tag, body)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func postOLAP(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/api/olap", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestRoundRobinSpreadsLoad: consecutive requests alternate across
// healthy backends and replay the request body to whichever backend
// serves them.
func TestRoundRobinSpreadsLoad(t *testing.T) {
	var aHits, bHits atomic.Int64
	a := fakeReplica(t, "a", &aHits)
	b := fakeReplica(t, "b", &bHits)
	rt, err := New([]string{a.URL, b.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 6; i++ {
		status, body := postOLAP(t, ts.URL, "q1")
		if status != http.StatusOK || !strings.HasSuffix(body, ":q1") {
			t.Fatalf("request %d = %d %q", i, status, body)
		}
	}
	if aHits.Load() != 3 || bHits.Load() != 3 {
		t.Fatalf("round-robin skewed: a=%d b=%d", aHits.Load(), bHits.Load())
	}
}

// TestFailoverRetriesAndDemotes: a dead backend is retried past
// transparently and demoted, so later requests skip it entirely; a
// 5xx backend is treated the same. A health probe re-admits a
// recovered backend.
func TestFailoverRetriesAndDemotes(t *testing.T) {
	var aHits, bHits atomic.Int64
	a := fakeReplica(t, "a", &aHits)
	b := fakeReplica(t, "b", &bHits)
	rt, err := New([]string{a.URL, b.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	a.Close() // kill one backend before any traffic
	for i := 0; i < 4; i++ {
		status, body := postOLAP(t, ts.URL, "q")
		if status != http.StatusOK || body != "b:q" {
			t.Fatalf("request %d = %d %q, want it served by the live backend", i, status, body)
		}
	}
	if bHits.Load() != 4 {
		t.Fatalf("live backend served %d of 4", bHits.Load())
	}

	// All dead → 502, not a hang.
	b.Close()
	if status, _ := postOLAP(t, ts.URL, "q"); status != http.StatusBadGateway {
		t.Fatalf("fleet down = %d, want 502", status)
	}
}

// TestServerErrorFailsOver: a backend answering 5xx is not the
// query's answer — the router retries on the next backend.
func TestServerErrorFailsOver(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "mid-restart", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	var goodHits atomic.Int64
	good := fakeReplica(t, "g", &goodHits)
	rt, err := New([]string{bad.URL, good.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 3; i++ {
		status, body := postOLAP(t, ts.URL, "q")
		if status != http.StatusOK || body != "g:q" {
			t.Fatalf("request %d = %d %q", i, status, body)
		}
	}
}

// TestWritesRejected: only reads scatter; every mutating method is
// refused at the router.
func TestWritesRejected(t *testing.T) {
	var hits atomic.Int64
	a := fakeReplica(t, "a", &hits)
	rt, err := New([]string{a.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	for _, m := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		path := "/api/run"
		req, _ := http.NewRequest(m, ts.URL+path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s = %d, want 403", m, path, resp.StatusCode)
		}
	}
	if hits.Load() != 0 {
		t.Fatalf("a write reached a backend")
	}
}

// TestProbeRecoversBackend: a demoted backend that comes back is
// re-admitted by the next health sweep.
func TestProbeRecoversBackend(t *testing.T) {
	var flaky atomic.Bool // false = down
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !flaky.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
	t.Cleanup(backend.Close)
	var hits atomic.Int64
	good := fakeReplica(t, "g", &hits)
	rt, err := New([]string{backend.URL, good.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// First probe demotes the flaky backend…
	rt.Probe(context.Background())
	if rt.backends[0].healthy.Load() {
		t.Fatal("down backend still marked healthy after probe")
	}
	// …and once it recovers, the next probe re-admits it.
	flaky.Store(true)
	rt.Probe(context.Background())
	if !rt.backends[0].healthy.Load() {
		t.Fatal("recovered backend not re-admitted by probe")
	}
}

// busyReplica answers 429 + Retry-After while shedding is true, and
// serves normally once it clears — a healthy quarryd protecting its
// SLO, not a dead node.
func busyReplica(t *testing.T, tag string, shedding *atomic.Bool, sheds *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/health":
			w.Write([]byte(`{"status":"ok"}`))
		case "/api/olap":
			if shedding.Load() {
				sheds.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"shed":true}`, http.StatusTooManyRequests)
				return
			}
			body, _ := io.ReadAll(r.Body)
			fmt.Fprintf(w, "%s:%s", tag, body)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestSheddingBackendStaysInRotation is the regression test for the
// demote-on-429 bug: a backend shedding load must keep its healthy
// mark and keep receiving traffic — siblings absorb the overflow, and
// the moment it stops shedding it serves again with no health-probe
// round trip needed.
func TestSheddingBackendStaysInRotation(t *testing.T) {
	var shedding atomic.Bool
	var sheds atomic.Int64
	shedding.Store(true)
	a := busyReplica(t, "a", &shedding, &sheds)
	var bHits atomic.Int64
	b := fakeReplica(t, "b", &bHits)
	rt, err := New([]string{a.URL, b.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 4; i++ {
		status, body := postOLAP(t, ts.URL, "q")
		if status != http.StatusOK || body != "b:q" {
			t.Fatalf("request %d = %d %q, want the non-shedding backend's answer", i, status, body)
		}
	}
	if !rt.backends[0].healthy.Load() {
		t.Fatal("shedding backend was demoted — 429 must mean busy, not dead")
	}
	if sheds.Load() == 0 {
		t.Fatal("shedding backend received no traffic — it left the rotation")
	}

	// Shed-then-recover: once it stops shedding it serves immediately.
	shedding.Store(false)
	served := false
	for i := 0; i < 4; i++ {
		status, body := postOLAP(t, ts.URL, "q")
		if status != http.StatusOK {
			t.Fatalf("post-recovery request %d = %d %q", i, status, body)
		}
		if body == "a:q" {
			served = true
		}
	}
	if !served {
		t.Fatal("recovered backend never served — still out of rotation")
	}
}

// TestWholeFleetBusyAggregates429: when every backend sheds, the
// router answers an aggregated 429 with a Retry-After — back off, not
// a 502 outage — and demotes nobody.
func TestWholeFleetBusyAggregates429(t *testing.T) {
	var shedding atomic.Bool
	var sheds atomic.Int64
	shedding.Store(true)
	a := busyReplica(t, "a", &shedding, &sheds)
	b := busyReplica(t, "b", &shedding, &sheds)
	rt, err := New([]string{a.URL, b.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.busyRetries = 0
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/api/olap", "application/json", strings.NewReader("q"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("whole-fleet busy = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("aggregated 429 carries no Retry-After")
	}
	for i, b := range rt.backends {
		if !b.healthy.Load() {
			t.Fatalf("backend %d demoted by shedding", i)
		}
	}
}

// TestRetryBudgetBoundsBusyRetries: with every backend busy, the
// router spends exactly retryBudget backoff passes (honoring
// Retry-After, jittered) and then answers 429 — retries never amplify
// the overload unboundedly.
func TestRetryBudgetBoundsBusyRetries(t *testing.T) {
	var shedding atomic.Bool
	var sheds atomic.Int64
	shedding.Store(true)
	a := busyReplica(t, "a", &shedding, &sheds)
	rt, err := New([]string{a.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var slept atomic.Int64
	rt.sleep = func(ctx context.Context, d time.Duration) bool {
		slept.Add(1)
		if d <= 0 || d > maxRetryAfter {
			t.Errorf("backoff %v outside (0, %v]", d, maxRetryAfter)
		}
		return true
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	status, _ := postOLAP(t, ts.URL, "q")
	if status != http.StatusTooManyRequests {
		t.Fatalf("exhausted budget = %d, want 429", status)
	}
	if slept.Load() != 2 {
		t.Fatalf("router slept %d times, want exactly the retry budget (2)", slept.Load())
	}
	if sheds.Load() != 3 {
		t.Fatalf("backend saw %d attempts, want 3 (initial pass + 2 budgeted retries)", sheds.Load())
	}
}

// TestBusyRetrySucceedsAfterBackoff: a backend that sheds one pass
// and recovers before the retry serves the request — the client never
// sees the transient shed.
func TestBusyRetrySucceedsAfterBackoff(t *testing.T) {
	var shedding atomic.Bool
	var sheds atomic.Int64
	shedding.Store(true)
	a := busyReplica(t, "a", &shedding, &sheds)
	rt, err := New([]string{a.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.sleep = func(ctx context.Context, d time.Duration) bool {
		shedding.Store(false) // backend drains during the backoff
		return true
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	status, body := postOLAP(t, ts.URL, "q")
	if status != http.StatusOK || body != "a:q" {
		t.Fatalf("retry after recovery = %d %q, want the backend's answer", status, body)
	}
}
