// Package router implements the scatter layer of the replicated
// serving deployment: a thin HTTP front that fans /api/olap across a
// fleet of read replicas with health-checked round-robin and
// retry-on-failure. Replicas answer every query byte-identically (the
// replication protocol ships the primary's committed segments
// verbatim and the OLAP stack is deterministic), so the router can
// pick any healthy backend and retry a failed request on another
// without changing the answer.
//
// The router holds no warehouse state and makes no routing decisions
// beyond liveness: it is safe to run several routers over the same
// fleet, and killing one loses nothing but its in-flight requests.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxBodyBytes bounds the buffered request body. OLAP requests are a
// few hundred bytes of SQL or xRQ; anything near the cap is abuse.
const maxBodyBytes = 1 << 20

// Busy-backend handling, shared by the replica router and the shard
// gather. A 429 (admission-control shed) or 503 (queue refusal) is a
// HEALTHY backend protecting itself: it must never be demoted from
// the ring — during an overload spike every replica sheds, and
// demote-on-429 would turn load shedding into mass demotion and a
// fleet-wide 502. Busy answers are retried with jittered backoff
// honoring the backend's Retry-After, under a per-query retry budget
// so the retries themselves cannot amplify the overload; a query
// whose budget runs out is answered with an aggregated 429 +
// Retry-After — "come back later", not "the fleet is dead".

// defaultRetryAfter is assumed when a busy answer carries no
// (parseable) Retry-After header.
const defaultRetryAfter = time.Second

// isBusyStatus classifies the statuses that mean "healthy but
// refusing work right now".
func isBusyStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// retryAfterOf reads a Retry-After header (whole seconds — the only
// form quarryd emits; HTTP-dates fall back to the default).
func retryAfterOf(hdr http.Header) time.Duration {
	if s, err := strconv.ParseInt(strings.TrimSpace(hdr.Get("Retry-After")), 10, 64); err == nil && s > 0 {
		return time.Duration(s) * time.Second
	}
	return defaultRetryAfter
}

// jittered spreads a backoff uniformly over [d/2, d): synchronized
// clients honoring the same Retry-After verbatim would re-arrive as
// one thundering herd and be shed again together.
func jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// sleepCtx waits d unless ctx ends first; false means the caller's
// client is gone and the retry is pointless.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// deadlineHeader carries a client's latency budget for one query (a Go
// duration or integer milliseconds; quarryd answers 504 once it is
// spent). Both routers hold the budget to the moment THEY received the
// request and send each attempt only what is left of it, so a backoff
// sleep or a failed attempt spends the client's budget instead of
// restarting it at the next backend.
const deadlineHeader = "X-Quarry-Deadline"

// withBudget bounds the request's context by its deadline header. A
// header quarryd would refuse bounds nothing: it travels on verbatim
// and the backend's 400 is the answer.
func withBudget(req *http.Request) (context.Context, context.CancelFunc) {
	h := strings.TrimSpace(req.Header.Get(deadlineHeader))
	d, err := time.ParseDuration(h)
	if ms, errMs := strconv.ParseInt(h, 10, 64); errMs == nil {
		d, err = time.Duration(ms)*time.Millisecond, nil
	}
	if err != nil || d <= 0 {
		return context.WithCancel(req.Context())
	}
	return context.WithTimeout(req.Context(), d)
}

// setRemainingBudget stamps an outgoing attempt with what is left of
// ctx's deadline, in whole milliseconds rounded up (quarryd refuses a
// zero budget); false means none is left.
func setRemainingBudget(ctx context.Context, out *http.Request) bool {
	deadline, ok := ctx.Deadline()
	if !ok {
		return true
	}
	left := time.Until(deadline)
	if left <= 0 {
		return false
	}
	ms := (left + time.Millisecond - 1) / time.Millisecond
	out.Header.Set(deadlineHeader, strconv.FormatInt(int64(ms), 10))
	return true
}

// budgetSpent reports whether ctx's deadline has passed — asked of the
// clock, because ctx.Err() lags it by a timer.
func budgetSpent(ctx context.Context) bool {
	deadline, ok := ctx.Deadline()
	return ok && time.Until(deadline) <= 0
}

// writeDeadlineExceeded answers a query whose budget ran out at the
// router with the status quarryd uses for the same condition.
func writeDeadlineExceeded(w http.ResponseWriter, who string) {
	http.Error(w, who+": deadline exceeded: the "+deadlineHeader+" budget was spent before a backend answered", http.StatusGatewayTimeout)
}

// backend is one replica the router scatters over.
type backend struct {
	base    string
	healthy atomic.Bool
}

// Router fans read requests across replicas. It proxies /api/olap
// (and other GET endpoints) with failover and rejects writes — those
// belong on the primary.
type Router struct {
	backends []*backend
	client   *http.Client
	next     atomic.Uint64

	// retryBudget is how many extra passes over the ring one request
	// may spend waiting out busy (429/503) backends before it is
	// answered with an aggregated 429. Bounded so retries cannot
	// multiply offered load during the very overload that caused them.
	retryBudget int
	// maxRetryAfter caps the backoff honored from a backend's
	// Retry-After header, so one absurd header cannot park requests.
	maxRetryAfter time.Duration
	// sleep is the backoff primitive (seam for tests; sleepCtx
	// otherwise).
	sleep func(ctx context.Context, d time.Duration) bool

	// probeMu serializes health sweeps (the background loop and any
	// test-triggered probe).
	probeMu sync.Mutex
}

// Options tunes a replica router beyond its defaults.
type Options struct {
	// RetryBudget: extra busy-retry passes per query (default 2;
	// negative disables busy retries entirely — busy answers 429
	// immediately once the whole ring was tried).
	RetryBudget int
	// MaxRetryAfter caps the per-pass backoff (default 2s).
	MaxRetryAfter time.Duration
}

// New builds a router over the given replica base URLs (e.g.
// "http://replica1:8081") with default options. All backends start
// healthy — the first failed request or health probe demotes them.
func New(replicas []string, client *http.Client) (*Router, error) {
	return NewWithOptions(replicas, client, Options{})
}

// NewWithOptions builds a router with explicit overload tuning.
func NewWithOptions(replicas []string, client *http.Client, opts Options) (*Router, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.RetryBudget == 0 {
		opts.RetryBudget = 2
	}
	if opts.RetryBudget < 0 {
		opts.RetryBudget = 0
	}
	if opts.MaxRetryAfter <= 0 {
		opts.MaxRetryAfter = 2 * time.Second
	}
	r := &Router{
		client:        client,
		retryBudget:   opts.RetryBudget,
		maxRetryAfter: opts.MaxRetryAfter,
		sleep:         sleepCtx,
	}
	for _, raw := range replicas {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" {
			return nil, fmt.Errorf("router: empty replica URL")
		}
		b := &backend{base: base}
		b.healthy.Store(true)
		r.backends = append(r.backends, b)
	}
	return r, nil
}

// Probe health-checks every backend once (GET /api/health) and
// updates its liveness flag. Used by the background loop and called
// directly in tests.
func (r *Router) Probe(ctx context.Context) {
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	for _, b := range r.backends {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/api/health", nil)
		if err != nil {
			b.healthy.Store(false)
			continue
		}
		resp, err := r.client.Do(req)
		if err != nil {
			b.healthy.Store(false)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		b.healthy.Store(resp.StatusCode == http.StatusOK)
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

// handleProxy forwards a read request to a healthy replica, retrying
// on the next one when a backend fails mid-request. POST is allowed
// only for /api/olap (a read that travels as POST); every other
// mutating method is rejected — the router fronts replicas, which
// would themselves answer 403.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet, http.MethodHead:
	case http.MethodPost:
		if req.URL.Path != "/api/olap" {
			http.Error(w, "router: writes must go to the primary", http.StatusForbidden)
			return
		}
	default:
		http.Error(w, "router: writes must go to the primary", http.StatusForbidden)
		return
	}
	// Buffer the body so a failed attempt can be replayed on the next
	// backend.
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(req.Body, maxBodyBytes+1))
		if err != nil {
			http.Error(w, "router: reading request body", http.StatusBadRequest)
			return
		}
		if len(body) > maxBodyBytes {
			http.Error(w, "router: request body too large", http.StatusRequestEntityTooLarge)
			return
		}
	}
	ctx, cancel := withBudget(req)
	defer cancel()
	var lastErr string
	for pass := 0; ; pass++ {
		sawBusy := false
		busyAfter := defaultRetryAfter
		for _, b := range r.candidates() {
			status, hdr, respBody, err := r.forward(ctx, req, b, body)
			if budgetSpent(ctx) || ctx.Err() != nil {
				// The budget ran out (or the client left) mid-attempt:
				// that says nothing about the backend's health.
				break
			}
			if err != nil {
				// Network-level failure: demote and try the next replica.
				b.healthy.Store(false)
				lastErr = fmt.Sprintf("%s: %v", b.base, err)
				continue
			}
			if isBusyStatus(status) {
				// Busy, not dead: a shedding (429) or queue-refusing
				// (503) replica is healthy and protecting itself —
				// demoting it would cascade load shedding into mass
				// demotion. Stays in rotation; remember its Retry-After
				// and try a sibling.
				sawBusy = true
				if ra := retryAfterOf(hdr); ra > busyAfter {
					busyAfter = ra
				}
				lastErr = fmt.Sprintf("%s: HTTP %d (busy)", b.base, status)
				continue
			}
			if status >= 500 && status != http.StatusGatewayTimeout {
				// The replica answered but is unwell (e.g. mid-restart).
				// Its response is not the query's answer — demote, retry.
				// (A 504 is: the query's budget is spent.)
				b.healthy.Store(false)
				lastErr = fmt.Sprintf("%s: HTTP %d", b.base, status)
				continue
			}
			for k, vs := range hdr {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(status)
			w.Write(respBody)
			return
		}
		if budgetSpent(ctx) {
			writeDeadlineExceeded(w, "router")
			return
		}
		if !sawBusy {
			// Every backend is down or erroring — a real outage.
			break
		}
		if busyAfter > r.maxRetryAfter {
			busyAfter = r.maxRetryAfter
		}
		if pass >= r.retryBudget {
			// Budget exhausted with the fleet still busy: aggregate the
			// shedding into one honest 429 — the fleet is alive, the
			// client should back off, and the router must not keep
			// re-offering the load that caused the shedding.
			w.Header().Set("Retry-After", strconv.FormatInt(int64(busyAfter.Seconds()+0.5), 10))
			http.Error(w, "router: all replicas busy (shedding), retry later: "+lastErr, http.StatusTooManyRequests)
			return
		}
		if !r.sleep(ctx, jittered(busyAfter)) {
			if budgetSpent(ctx) {
				writeDeadlineExceeded(w, "router")
			}
			// Otherwise the client is gone; nothing left to answer.
			return
		}
	}
	http.Error(w, "router: no replica available: "+lastErr, http.StatusBadGateway)
}

// forward sends one attempt to one backend and returns the full
// response (buffered: a response we cannot finish reading must not be
// half-streamed to the client, or the retry would corrupt it).
func (r *Router) forward(ctx context.Context, req *http.Request, b *backend, body []byte) (int, http.Header, []byte, error) {
	out, err := http.NewRequestWithContext(ctx, req.Method, b.base+req.URL.RequestURI(), strings.NewReader(string(body)))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range req.Header {
		for _, v := range vs {
			out.Header.Add(k, v)
		}
	}
	if !setRemainingBudget(ctx, out) {
		return 0, nil, nil, context.DeadlineExceeded
	}
	resp, err := r.client.Do(out)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}
