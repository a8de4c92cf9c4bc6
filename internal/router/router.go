// Package router is the hop between a client and a fleet of quarryd
// nodes, in two shapes over one core (fleet.go): the replica Router
// below and the shard gather (gather.go).
//
// The core sends one attempt to one backend and says what came of it —
// answered, busy, unwell, or budget spent; a router is a policy over
// those outcomes:
//
//	                replica Router            ShardRouter
//	needs           any one of N              all of N, merged
//	answered 2xx    forwarded, done           kept for the merge
//	answered 4xx    forwarded, done           forwarded, done
//	answered 504    forwarded, done           forwarded, done
//	busy            next replica; all busy:   whole scatter again after
//	                backoff, then 429         backoff, then 429
//	unwell          demoted, next replica;    tried again, then 502:
//	                none left: 502            no partial answers
//	budget spent    504                       504
//
// The replica Router fans /api/olap across read replicas with
// health-checked round-robin. Replicas answer every query
// byte-identically (the replication protocol ships the primary's
// committed segments verbatim and the OLAP stack is deterministic), so
// the router can pick any healthy backend and retry a failed request on
// another without changing the answer.
//
// A router holds no warehouse state and makes no routing decisions
// beyond liveness: it is safe to run several routers over the same
// fleet, and killing one loses nothing but its in-flight requests.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Router fans read requests across replicas. It proxies /api/olap
// (and other GET endpoints) with failover and rejects writes — those
// belong on the primary.
type Router struct {
	fleet
	next atomic.Uint64
	// probeMu serializes health sweeps (the background loop and any
	// test-triggered probe).
	probeMu sync.Mutex
}

// replicaBusyRetries is how many extra passes over the ring a query
// may spend waiting out busy replicas.
const replicaBusyRetries = 2

// New builds a router over the given replica base URLs (e.g.
// "http://replica1:8081"); a nil client gets a 30 s timeout.
func New(replicas []string, client *http.Client) (*Router, error) {
	f, err := newFleet("router", "replica", replicas, client, replicaBusyRetries)
	if err != nil {
		return nil, err
	}
	return &Router{fleet: f}, nil
}

// Probe health-checks every backend once and updates its liveness
// flag. Used by the background loop and called directly in tests.
func (r *Router) Probe(ctx context.Context) {
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	for _, b := range r.backends {
		ok, _ := r.probe(ctx, b)
		b.healthy.Store(ok)
	}
}

// HealthLoop probes every backend each interval until ctx is
// cancelled.
func (r *Router) HealthLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		r.Probe(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// candidates returns the backends to try for one request: the healthy
// ones starting at the round-robin cursor, then — only when every
// backend is marked down — the full ring, so a fleet-wide blip is
// retried rather than instantly 502'd.
func (r *Router) candidates() []*backend {
	n := len(r.backends)
	start := int(r.next.Add(1)-1) % n
	var out []*backend
	for i := 0; i < n; i++ {
		b := r.backends[(start+i)%n]
		if b.healthy.Load() {
			out = append(out, b)
		}
	}
	if len(out) > 0 {
		return out
	}
	for i := 0; i < n; i++ {
		out = append(out, r.backends[(start+i)%n])
	}
	return out
}

// Handler returns the router's HTTP interface.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/health", r.handleHealth)
	mux.HandleFunc("/", r.handleProxy)
	return mux
}

// handleHealth reports the router's own liveness plus each backend's.
func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	type repl struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
	}
	resp := struct {
		Status   string `json:"status"`
		Role     string `json:"role"`
		Replicas []repl `json:"replicas"`
	}{Status: "degraded", Role: "router"}
	for _, b := range r.backends {
		h := b.healthy.Load()
		if h {
			resp.Status = "ok"
		}
		resp.Replicas = append(resp.Replicas, repl{URL: b.base, Healthy: h})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleProxy forwards a read request to a healthy replica — first
// answer wins — moving on to the next one when a backend is busy or
// unwell. POST is allowed only for /api/olap (a read that travels as
// POST); every other mutating method is rejected — the router fronts
// replicas, which would themselves answer 403.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	read := req.Method == http.MethodGet || req.Method == http.MethodHead ||
		req.Method == http.MethodPost && req.URL.Path == "/api/olap"
	if !read {
		http.Error(w, "router: writes must go to the primary", http.StatusForbidden)
		return
	}
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	ctx, cancel := withBudget(req)
	defer cancel()
	rq := request{method: req.Method, uri: req.URL.RequestURI(), header: req.Header, body: body}
	var lastErr string
	for pass := 0; ; pass++ {
		sawBusy, busyAfter := false, defaultRetryAfter
	ring:
		for _, b := range r.candidates() {
			a := r.do(ctx, b, rq)
			switch a.outcome {
			case spent:
				// Says nothing about the backend's health: stop asking.
				break ring
			case unwell:
				// Down, or up but erroring (e.g. mid-restart): its response
				// is not the query's answer — demote, try the next replica.
				b.healthy.Store(false)
			case busy:
				// Stays in rotation; remember its Retry-After and try a
				// sibling.
				sawBusy = true
				busyAfter = max(busyAfter, a.retryAfter)
			case answered:
				for k, vs := range a.header {
					for _, v := range vs {
						w.Header().Add(k, v)
					}
				}
				w.WriteHeader(a.status)
				w.Write(a.body)
				return
			}
			lastErr = fmt.Sprintf("%s: %v", b.base, a.err)
		}
		if budgetSpent(ctx) {
			r.writeDeadlineExceeded(w)
			return
		}
		if !sawBusy {
			// Every backend is down or erroring — a real outage.
			break
		}
		if !r.backoff(ctx, w, busyAfter, pass >= r.busyRetries, "all replicas busy (shedding), retry later: "+lastErr) {
			return
		}
	}
	http.Error(w, "router: no replica available: "+lastErr, http.StatusBadGateway)
}
