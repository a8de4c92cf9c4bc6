// Shard gather: the fan-out/fan-in front of a hash-partitioned
// warehouse (see internal/shard). Unlike the replica Router — which
// picks ONE backend because every replica holds all the data — the
// ShardRouter needs ALL backends: each shard holds one partition of
// the fact, so a cube query is answered by scattering it to every
// shard's partial-aggregate endpoint and merging the pre-finalisation
// states into the final answer.
//
// Failure contract (pinned by the fault-injection tests): the gather
// NEVER serves a partial answer. A shard that stays unreachable after
// per-shard retries fails the whole query with 502; shards answering
// at different warehouse epochs trigger a bounded whole-scatter retry
// and then 503 — a delayed answer, never a mixed-epoch or
// missing-partition one. A shard answering 429/503 is busy, not dead:
// when only some shards shed, the scatter backs off (jittered,
// honoring Retry-After) and retries whole up to busyRetries times;
// when the WHOLE fleet sheds — or the busy budget is spent — the
// gather fails fast with an aggregated 429, never a 502, so clients
// and upstream routers see "back off", not "outage".
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"quarry/internal/olap"
	"quarry/internal/shard"
)

// ShardRouter scatters cube queries over the shards of a partitioned
// warehouse and gathers their partial aggregates into one answer.
type ShardRouter struct {
	shards []string // base URL of shard i at index i — order IS the topology
	client *http.Client
	// attempts is how many times one shard is tried per scatter
	// (1 = no retry).
	attempts int
	// skewRetries is how many times the whole scatter is redone when
	// shards answer at different epochs (a reload racing the query).
	skewRetries int
	// busyRetries is how many times the whole scatter is redone when
	// SOME (not all) shards answered busy (429/503).
	busyRetries int
	// maxRetryAfter caps a shard's Retry-After suggestion before the
	// gather sleeps on it or forwards it.
	maxRetryAfter time.Duration
	// sleep waits for the backoff, or returns false if ctx ends first.
	// A field so tests can stub it out.
	sleep func(ctx context.Context, d time.Duration) bool
}

// GatherOptions tunes a ShardRouter beyond its shard list.
type GatherOptions struct {
	// Attempts is how many times one shard is tried per scatter on
	// transport errors and non-busy 5xx (<= 0 means 2).
	Attempts int
	// SkewRetries bounds whole-scatter retries on epoch skew
	// (< 0 means 2).
	SkewRetries int
	// BusyRetries bounds whole-scatter retries when some shards are
	// busy (< 0 means 1). 0 disables busy retries: any shed shard
	// immediately fails the query with 429.
	BusyRetries int
	// MaxRetryAfter caps shard Retry-After suggestions (<= 0 means 2s).
	MaxRetryAfter time.Duration
}

// NewShardGather builds a gather router. shards[i] must be the base
// URL of the quarryd running with -shard-index i; the merge validates
// every answer's self-reported identity against this order, so a
// miswired fleet fails queries instead of silently double- or
// zero-counting a partition. attempts <= 0 defaults to 2, and
// skewRetries < 0 to 2.
func NewShardGather(shards []string, client *http.Client, attempts, skewRetries int) (*ShardRouter, error) {
	return NewShardGatherWithOptions(shards, client, GatherOptions{Attempts: attempts, SkewRetries: skewRetries, BusyRetries: -1})
}

// NewShardGatherWithOptions is NewShardGather with the full option
// set; zero-value options take the documented defaults.
func NewShardGatherWithOptions(shards []string, client *http.Client, opts GatherOptions) (*ShardRouter, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 2
	}
	if opts.SkewRetries < 0 {
		opts.SkewRetries = 2
	}
	if opts.BusyRetries < 0 {
		opts.BusyRetries = 1
	}
	if opts.MaxRetryAfter <= 0 {
		opts.MaxRetryAfter = 2 * time.Second
	}
	g := &ShardRouter{
		client:        client,
		attempts:      opts.Attempts,
		skewRetries:   opts.SkewRetries,
		busyRetries:   opts.BusyRetries,
		maxRetryAfter: opts.MaxRetryAfter,
		sleep:         sleepCtx,
	}
	for _, raw := range shards {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" {
			return nil, fmt.Errorf("router: empty shard URL")
		}
		g.shards = append(g.shards, base)
	}
	return g, nil
}

// Handler returns the gather's HTTP interface: POST /api/olap and
// GET /api/health. Everything else — the requirement lifecycle,
// deploy, run — is rejected: design and load operations go to the
// shards' own endpoints (in lockstep), not through the gather.
func (g *ShardRouter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/health", g.handleHealth)
	mux.HandleFunc("POST /api/olap", g.handleOLAP)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "shard gather: only POST /api/olap and GET /api/health are served here; design and load operations go to each shard directly", http.StatusForbidden)
	})
	return mux
}

// handleHealth live-probes every shard and reports the topology: the
// operator's view of whether the fleet is complete, consistently
// indexed, and on one epoch.
func (g *ShardRouter) handleHealth(w http.ResponseWriter, req *http.Request) {
	type shardHealth struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
		Epoch   uint64 `json:"epoch,omitempty"`
		Index   *int   `json:"shard_index,omitempty"`
	}
	out := struct {
		Status string        `json:"status"`
		Role   string        `json:"role"`
		Shards []shardHealth `json:"shards"`
	}{Status: "ok", Role: "shard-gather", Shards: make([]shardHealth, len(g.shards))}
	var wg sync.WaitGroup
	for i, base := range g.shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			sh := shardHealth{URL: base}
			hreq, err := http.NewRequestWithContext(req.Context(), http.MethodGet, base+"/api/health", nil)
			if err == nil {
				if resp, err := g.client.Do(hreq); err == nil {
					var body struct {
						Epoch      uint64 `json:"epoch"`
						ShardIndex *int   `json:"shard_index"`
					}
					_ = json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					sh.Healthy = resp.StatusCode == http.StatusOK
					sh.Epoch = body.Epoch
					sh.Index = body.ShardIndex
				}
			}
			out.Shards[i] = sh
		}(i, base)
	}
	wg.Wait()
	for _, sh := range out.Shards {
		if !sh.Healthy {
			out.Status = "degraded"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// shardAttempt is one shard's outcome within a scatter.
type shardAttempt struct {
	resp *shard.PartialResponse // set on 2xx
	// status/body hold a shard's own 4xx answer (e.g. a diced query,
	// which is not distributive): deterministic across shards, so it
	// is forwarded to the client rather than retried.
	status int
	body   []byte
	// busy marks a 429/503 answer: the shard is healthy but shedding.
	// Never treated as err — busy shards trigger scatter-level backoff,
	// not the partial-answer-refusing 502 path.
	busy       bool
	retryAfter time.Duration // the busy shard's (uncapped) suggestion
	err        error         // transport failure or persistent 5xx
}

// handleOLAP answers one cube query by scatter-gather.
func (g *ShardRouter) handleOLAP(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBodyBytes+1))
	if err != nil {
		http.Error(w, "router: reading request body", http.StatusBadRequest)
		return
	}
	if len(body) > maxBodyBytes {
		http.Error(w, "router: request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	ctx, cancel := withBudget(req)
	defer cancel()
	var lastSkew error
	skewLeft, busyLeft := g.skewRetries, g.busyRetries
	for {
		results := g.scatter(ctx, body, req.Header.Get(deadlineHeader))
		// A spent budget first: the shards it cut off are not dead.
		if budgetSpent(ctx) {
			writeDeadlineExceeded(w, "shard gather")
			return
		}
		// Dead shards first: a hole in the topology is an outage no
		// amount of backoff fixes, so it wins over busyness elsewhere.
		for i, r := range results {
			if r.err != nil {
				http.Error(w, fmt.Sprintf("shard gather: shard %d (%s) unavailable, refusing partial answer: %v", i, g.shards[i], r.err), http.StatusBadGateway)
				return
			}
		}
		// Busy shards: healthy but shedding. The scatter needs every
		// shard, so even one busy shard blocks the answer.
		busyCount, busyAfter := 0, defaultRetryAfter
		for _, r := range results {
			if r.busy {
				busyCount++
				if r.retryAfter > busyAfter {
					busyAfter = r.retryAfter
				}
			}
		}
		if busyCount > 0 {
			if busyAfter > g.maxRetryAfter {
				busyAfter = g.maxRetryAfter
			}
			if busyCount == len(results) || busyLeft <= 0 {
				// Whole fleet shedding (retrying would just re-offer the
				// load that caused it) or busy budget spent: aggregate
				// into one honest 429 — "back off", not "outage".
				w.Header().Set("Retry-After", strconv.FormatInt(int64(busyAfter.Seconds()+0.5), 10))
				http.Error(w, fmt.Sprintf("shard gather: %d/%d shards busy (shedding), retry later", busyCount, len(results)), http.StatusTooManyRequests)
				return
			}
			busyLeft--
			if !g.sleep(ctx, jittered(busyAfter)) {
				if budgetSpent(ctx) {
					writeDeadlineExceeded(w, "shard gather")
				}
				// Otherwise the client is gone; nothing left to answer.
				return
			}
			continue
		}
		resps := make([]*shard.PartialResponse, len(results))
		for i, r := range results {
			if r.status != 0 {
				// The shard itself rejected the query; its verdict is
				// deterministic and final.
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(r.status)
				_, _ = w.Write(r.body)
				return
			}
			resps[i] = r.resp
		}
		columns, rows, epoch, err := shard.Merge(resps)
		if err != nil {
			if errors.Is(err, shard.ErrEpochSkew) {
				// A reload is racing the scatter; a fresh scatter usually
				// lands on one epoch.
				lastSkew = err
				if skewLeft <= 0 {
					break
				}
				skewLeft--
				continue
			}
			http.Error(w, "shard gather: "+err.Error(), http.StatusBadGateway)
			return
		}
		out := struct {
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		}{Columns: columns, Rows: [][]string{}}
		for _, row := range rows {
			out.Rows = append(out.Rows, olap.RenderRow(row))
		}
		w.Header().Set("X-Quarry-Version", fmt.Sprintf("%d", epoch))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(out)
		return
	}
	http.Error(w, "shard gather: shards keep answering at different warehouse epochs: "+lastSkew.Error(), http.StatusServiceUnavailable)
}

// scatter fans the request body to every shard's partial endpoint
// concurrently, retrying each shard up to g.attempts times on
// transport errors and 5xx answers.
func (g *ShardRouter) scatter(ctx context.Context, body []byte, budget string) []shardAttempt {
	results := make([]shardAttempt, len(g.shards))
	var wg sync.WaitGroup
	for i, base := range g.shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			results[i] = g.askShard(ctx, base, body, budget)
		}(i, base)
	}
	wg.Wait()
	return results
}

// askShard posts the query body verbatim to one shard, with retries;
// every attempt carries what is left of ctx's deadline as its budget
// (or, when ctx has none, the client's deadline header as it came — a
// malformed one is the shard's to refuse).
func (g *ShardRouter) askShard(ctx context.Context, base string, body []byte, budget string) shardAttempt {
	var last shardAttempt
	for try := 0; try < g.attempts; try++ {
		if err := ctx.Err(); err != nil {
			return shardAttempt{err: err}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/olap/partial", bytes.NewReader(body))
		if err != nil {
			return shardAttempt{err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		if budget != "" {
			req.Header.Set(deadlineHeader, budget)
		}
		if !setRemainingBudget(ctx, req) {
			return shardAttempt{err: context.DeadlineExceeded}
		}
		resp, err := g.client.Do(req)
		if err != nil {
			last = shardAttempt{err: err}
			continue
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			last = shardAttempt{err: err}
			continue
		}
		switch {
		case isBusyStatus(resp.StatusCode):
			// Shedding, not broken. No tight per-shard retry — hammering
			// an overloaded shard only deepens its backlog; the scatter
			// loop decides whether to back off and retry the whole fleet.
			return shardAttempt{busy: true, retryAfter: retryAfterOf(resp.Header), status: resp.StatusCode, body: respBody}
		case resp.StatusCode >= 500 && resp.StatusCode != http.StatusGatewayTimeout:
			last = shardAttempt{err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(respBody)))}
			continue
		case resp.StatusCode >= 400:
			// The shard's own verdict on the query — a 504 included:
			// the budget it was sent is spent, and retrying cannot
			// bring it back.
			return shardAttempt{status: resp.StatusCode, body: respBody}
		}
		var pr shard.PartialResponse
		if err := json.Unmarshal(respBody, &pr); err != nil {
			last = shardAttempt{err: fmt.Errorf("undecodable partial answer: %w", err)}
			continue
		}
		return shardAttempt{resp: &pr}
	}
	return last
}
