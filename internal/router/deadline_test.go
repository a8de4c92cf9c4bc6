package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quarry/internal/olap"
)

// A deadline must mean the same thing after a router hop: the budget
// runs from the moment the router receives the request, every attempt
// is sent only what is left of it, and once it is spent the client
// gets a 504 — not a late 200, and not a 502 blaming a live backend.

// postWithBudget posts an OLAP query carrying a deadline header.
func postWithBudget(t *testing.T, url, budget string) (int, string, time.Duration) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/api/olap", strings.NewReader(`{"fact":"f"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(olap.DeadlineHeader, budget)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), time.Since(start)
}

// budgets records the deadline header of every request a backend saw.
type budgets struct {
	mu   sync.Mutex
	seen []string
}

func (b *budgets) record(r *http.Request) {
	b.mu.Lock()
	b.seen = append(b.seen, r.Header.Get(olap.DeadlineHeader))
	b.mu.Unlock()
}

// ms returns the recorded budgets as milliseconds.
func (b *budgets) ms(t *testing.T) []int64 {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]int64, len(b.seen))
	for i, h := range b.seen {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil {
			t.Fatalf("attempt %d carried deadline header %q, want integer milliseconds", i, h)
		}
		out[i] = v
	}
	return out
}

// sleepyHandler answers ok after d, unless the request is cancelled.
func sleepyHandler(d time.Duration, ok func(http.ResponseWriter)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(d):
			ok(w)
		case <-r.Context().Done():
		}
	}
}

func TestGatherSlowShardPastBudgetIs504(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, 0, 2, 7), newFakeShard(t, 1, 2, 7)}
	var seen budgets
	late := sleepyHandler(400*time.Millisecond, func(w http.ResponseWriter) { writePartial(w, partialFor(t, 1, 2, 7)) })
	shards[1].serve(func(w http.ResponseWriter, r *http.Request) {
		seen.record(r)
		late(w, r)
	})
	ts := gatherOver(t, shards, 2, 0)
	status, body, took := postWithBudget(t, ts.URL, "80ms")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, body)
	}
	if took > 300*time.Millisecond {
		t.Fatalf("the 504 took %v: the gather waited for the late shard", took)
	}
	for i, ms := range seen.ms(t) {
		if ms <= 0 || ms > 80 {
			t.Fatalf("attempt %d sent the shard a budget of %d ms out of 80", i, ms)
		}
	}
	if len(seen.seen) == 0 {
		t.Fatal("the shard never saw the query")
	}
}

func TestGatherBudgetShrinksAcrossBackoff(t *testing.T) {
	var shedding atomic.Bool
	shedding.Store(true)
	shards := []*fakeShard{newFakeShard(t, 0, 2, 7), newFakeShard(t, 1, 2, 7)}
	var seen budgets
	shards[0].serve(func(w http.ResponseWriter, r *http.Request) {
		seen.record(r)
		writePartial(w, partialFor(t, 0, 2, 7))
	})
	busyShard(shards[1], &shedding, 1, 2, 7, t)
	_, ts := gatherWithOptions(t, shards, Options{Attempts: 1, BusyRetries: 1}, func() {
		time.Sleep(60 * time.Millisecond) // the backoff spends budget
		shedding.Store(false)
	})
	status, body, _ := postWithBudget(t, ts.URL, "5000")
	if status != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", status, body)
	}
	got := seen.ms(t)
	if len(got) != 2 || got[0] > 5000 || got[1] > got[0]-60 {
		t.Fatalf("budgets sent across a 60 ms backoff: %v ms, want the second at least 60 below the first", got)
	}
}

func TestGatherForwardsShard504(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, 0, 2, 7), newFakeShard(t, 1, 2, 7)}
	shards[1].serve(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"deadline_exceeded":true}`, http.StatusGatewayTimeout)
	})
	ts := gatherOver(t, shards, 3, 0)
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(body, "deadline_exceeded") {
		t.Fatalf("status %d (%s), want the shard's 504 forwarded", resp.StatusCode, body)
	}
	if shards[1].hits.Load() != 1 {
		t.Fatalf("a shard's 504 was retried %d times", shards[1].hits.Load()-1)
	}
}

// budgetReplica is a replica that records each attempt's budget and
// answers through h.
func budgetReplica(t *testing.T, seen *budgets, h func(http.ResponseWriter, *http.Request)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/olap" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		seen.record(r)
		h(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestRouterForwardsRemainingBudgetAfterBackoff(t *testing.T) {
	var seen budgets
	var shed atomic.Bool
	shed.Store(true)
	a := budgetReplica(t, &seen, func(w http.ResponseWriter, r *http.Request) {
		if shed.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, "answer")
	})
	rt, err := New([]string{a.URL}, nil, Options{BusyRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.sleep = func(ctx context.Context, d time.Duration) bool {
		time.Sleep(60 * time.Millisecond)
		shed.Store(false)
		return true
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	status, body, _ := postWithBudget(t, ts.URL, "5s")
	if status != http.StatusOK || body != "answer" {
		t.Fatalf("got %d %q, want the backend's answer", status, body)
	}
	got := seen.ms(t)
	if len(got) != 2 || got[0] > 5000 || got[1] > got[0]-60 {
		t.Fatalf("budgets sent across a 60 ms backoff: %v ms, want the second at least 60 below the first", got)
	}
}

func TestRouterSlowReplicaPastBudgetIs504(t *testing.T) {
	var seen budgets
	a := budgetReplica(t, &seen, sleepyHandler(400*time.Millisecond, func(w http.ResponseWriter) { fmt.Fprint(w, "late") }))
	rt, err := New([]string{a.URL}, nil, Options{BusyRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	status, body, took := postWithBudget(t, ts.URL, "80")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, body)
	}
	if took > 300*time.Millisecond {
		t.Fatalf("the 504 took %v: the router waited for the late replica", took)
	}
	if !rt.backends[0].healthy.Load() {
		t.Fatal("a replica cut off by the client's budget was demoted")
	}
}

func TestRouterForwardsReplica504WithoutDemotion(t *testing.T) {
	var seen budgets
	a := budgetReplica(t, &seen, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"deadline_exceeded":true}`, http.StatusGatewayTimeout)
	})
	rt, err := New([]string{a.URL}, nil, Options{BusyRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	status, body := postOLAP(t, ts.URL, "q")
	if status != http.StatusGatewayTimeout || !strings.Contains(body, "deadline_exceeded") {
		t.Fatalf("got %d %q, want the replica's 504", status, body)
	}
	if !rt.backends[0].healthy.Load() {
		t.Fatal("a replica answering 504 was demoted")
	}
}

// A budget under a millisecond is still a budget: it must not round
// down to "none left, but not expired either" and come out as a 502.
func TestSubMillisecondBudgetIs504(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, 0, 2, 7), newFakeShard(t, 1, 2, 7)}
	slow := sleepyHandler(200*time.Millisecond, func(w http.ResponseWriter) { writePartial(w, partialFor(t, 1, 2, 7)) })
	shards[1].serve(slow)
	gather := gatherOver(t, shards, 2, 0)

	var seen budgets
	a := budgetReplica(t, &seen, sleepyHandler(200*time.Millisecond, func(w http.ResponseWriter) { fmt.Fprint(w, "late") }))
	rt, err := New([]string{a.URL}, nil, Options{BusyRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	ring := httptest.NewServer(rt.Handler())
	t.Cleanup(ring.Close)

	for name, url := range map[string]string{"gather": gather.URL, "ring": ring.URL} {
		for i := 0; i < 20; i++ {
			if status, body, _ := postWithBudget(t, url, "300us"); status != http.StatusGatewayTimeout {
				t.Fatalf("%s: status %d (%s), want 504", name, status, body)
			}
		}
	}
	if !rt.backends[0].healthy.Load() {
		t.Fatal("a replica cut off by the client's budget was demoted")
	}
}

// A deadline header quarryd would refuse is not the router's to judge:
// it reaches the backend as it came, and the backend's 400 is the
// answer — through the gather too, which builds its own requests.
func TestGatherPassesMalformedBudgetToShards(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, 0, 2, 7), newFakeShard(t, 1, 2, 7)}
	for _, fs := range shards {
		fs.serve(func(w http.ResponseWriter, r *http.Request) {
			if h := r.Header.Get(olap.DeadlineHeader); h != "soon" {
				t.Errorf("shard saw deadline header %q, want it verbatim", h)
			}
			http.Error(w, `{"error":"invalid X-Quarry-Deadline"}`, http.StatusBadRequest)
		})
	}
	ts := gatherOver(t, shards, 2, 0)
	status, body, _ := postWithBudget(t, ts.URL, "soon")
	if status != http.StatusBadRequest || !strings.Contains(body, "invalid X-Quarry-Deadline") {
		t.Fatalf("status %d (%s), want the shard's 400", status, body)
	}
}

// One grammar for the deadline header on both sides of the hop:
// olap.ParseDeadline is what quarryd refuses by and what the routers
// bound by. A value it rejects is quarryd's 400; at a router it bounds
// nothing and travels on (the test above) — "an unparseable header
// bounds nothing", by calling the same function.
func TestDeadlineGrammarAgreesAcrossTheHop(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   time.Duration // 0: no budget
		bad    bool          // quarryd answers 400
	}{
		{"250ms", 250 * time.Millisecond, false},
		{"30", 30 * time.Millisecond, false}, // a bare integer is milliseconds
		{"0", 0, true},
		{"-5", 0, true},
		{"1e3", 0, true}, // neither an integer nor a Go duration
		{" 2s ", 2 * time.Second, false},
		{"banana", 0, true},
		{"", 0, false}, // absent: no budget, no error
	} {
		got, err := olap.ParseDeadline(tc.header)
		if got != tc.want || (err != nil) != tc.bad {
			t.Errorf("ParseDeadline(%q) = %v, %v; want %v, error %v", tc.header, got, err, tc.want, tc.bad)
		}
		req := httptest.NewRequest(http.MethodPost, "/api/olap", nil)
		req.Header.Set(olap.DeadlineHeader, tc.header)
		start := time.Now()
		ctx, cancel := withBudget(req)
		deadline, bounded := ctx.Deadline()
		cancel()
		if bounded != (tc.want > 0) {
			t.Errorf("withBudget(%q) bounded = %v, want %v", tc.header, bounded, tc.want > 0)
		}
		if bounded && (deadline.Before(start.Add(tc.want)) || deadline.After(time.Now().Add(tc.want))) {
			t.Errorf("withBudget(%q) deadline is not %v from receipt", tc.header, tc.want)
		}
	}
}
