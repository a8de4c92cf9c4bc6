package router

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// sleeps records the backoffs a router asked for instead of sleeping.
type sleeps struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *sleeps) sleep(_ context.Context, d time.Duration) bool {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
	return true
}

// take returns the recorded backoffs and forgets them.
func (s *sleeps) take() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.d
	s.d = nil
	return d
}

// checkBackoffs fails unless there were n backoffs, each capped at 2 s
// although the backends asked for 10 s.
func checkBackoffs(t *testing.T, got []time.Duration, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%d backoffs %v, want %d", len(got), got, n)
	}
	for _, d := range got {
		if d <= 0 || d > 2*time.Second {
			t.Fatalf("backoff %v: a Retry-After of 10 s must be capped at 2 s", d)
		}
	}
}

// TestRouterDefaultsAreTheOldFlagDefaults pins what a router built from
// its URLs alone does — what quarryrouter did with its retry flags at
// their defaults, and what the shard_gather benchmark workload routes
// through: the replica ring makes two busy passes after the first; the
// gather retries a partly busy scatter once, tries an unwell shard
// twice and rescatters an epoch skew twice; no backoff exceeds 2 s; a
// backend gets 30 s to answer.
func TestRouterDefaultsAreTheOldFlagDefaults(t *testing.T) {
	busy := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "10")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}

	t.Run("replica ring", func(t *testing.T) {
		var rec budgets
		a := budgetReplica(t, &rec, busy)
		rt, err := New([]string{a.URL}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rt.client.Timeout != 30*time.Second {
			t.Fatalf("backend timeout %v, want 30s", rt.client.Timeout)
		}
		var s sleeps
		rt.sleep = s.sleep
		ts := httptest.NewServer(rt.Handler())
		t.Cleanup(ts.Close)
		if status, body := postOLAP(t, ts.URL, "q"); status != http.StatusTooManyRequests {
			t.Fatalf("status %d (%s), want 429", status, body)
		}
		rec.mu.Lock()
		n := len(rec.seen)
		rec.mu.Unlock()
		if n != 3 {
			t.Fatalf("the busy replica was asked %d times, want 3 (first pass + 2 busy passes)", n)
		}
		checkBackoffs(t, s.take(), 2)
	})

	t.Run("shard gather", func(t *testing.T) {
		shards := []*fakeShard{newFakeShard(t, 0, 2, 7), newFakeShard(t, 1, 2, 7)}
		g, err := NewShardGather([]string{shards[0].ts.URL, shards[1].ts.URL}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g.client.Timeout != 30*time.Second {
			t.Fatalf("backend timeout %v, want 30s", g.client.Timeout)
		}
		var s sleeps
		g.sleep = s.sleep
		ts := httptest.NewServer(g.Handler())
		t.Cleanup(ts.Close)
		ask := func(h func(http.ResponseWriter, *http.Request), want int) {
			t.Helper()
			shards[0].hits.Store(0)
			shards[1].hits.Store(0)
			shards[1].serve(h)
			if resp, body := postGather(t, ts.URL); resp.StatusCode != want {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, body, want)
			}
		}

		ask(busy, http.StatusTooManyRequests)
		if n := shards[1].hits.Load(); n != 2 {
			t.Fatalf("partly busy fleet: busy shard asked %d times, want 2 (1 busy retry)", n)
		}
		checkBackoffs(t, s.take(), 1)

		ask(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "down", http.StatusInternalServerError)
		}, http.StatusBadGateway)
		if n := shards[1].hits.Load(); n != 2 {
			t.Fatalf("unwell shard asked %d times, want 2 attempts", n)
		}

		ask(func(w http.ResponseWriter, _ *http.Request) {
			writePartial(w, partialFor(t, 1, 2, 8))
		}, http.StatusServiceUnavailable)
		if a, b := shards[0].hits.Load(), shards[1].hits.Load(); a != 3 || b != 3 {
			t.Fatalf("epoch skew: %d/%d scatters, want 3/3 (2 skew retries)", a, b)
		}
		checkBackoffs(t, s.take(), 0)
	})
}
