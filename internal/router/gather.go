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
// and upstream routers see "back off", not "outage". A query the
// single node fails fails here alike: a shard's own 4xx is relayed
// verbatim, and a merged answer that fails (an int SUM that leaves
// int64 only once the shards' sums add up) is the single node's 422.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"quarry/internal/olap"
	"quarry/internal/shard"
)

const (
	// gatherBusyRetries is how many whole scatters a query may redo
	// while some (not all) shards answer busy.
	gatherBusyRetries = 1
	// shardAttempts is how many times one unwell shard — transport
	// error or non-busy 5xx — is tried per scatter.
	shardAttempts = 2
	// skewRetries is how many whole scatters a query may redo while
	// shards answer at different epochs.
	skewRetries = 2
)

// ShardRouter scatters cube queries over the shards of a partitioned
// warehouse and gathers their partial aggregates into one answer. Its
// backends are the shards in index order — the order IS the topology.
type ShardRouter struct {
	fleet
	// attempts is how many times one shard is tried per scatter
	// (1 = no retry).
	attempts int
	// skewRetries is how many times the whole scatter is redone when
	// shards answer at different epochs (a reload racing the query).
	skewRetries int
}

// NewShardGather builds a gather router. shards[i] must be the base
// URL of the quarryd running with -shard-index i; the merge validates
// every answer's self-reported identity against this order, so a
// miswired fleet fails queries instead of silently double- or
// zero-counting a partition. A nil client gets a 30 s timeout.
func NewShardGather(shards []string, client *http.Client) (*ShardRouter, error) {
	f, err := newFleet("shard gather", "shard", shards, client, gatherBusyRetries)
	if err != nil {
		return nil, err
	}
	return &ShardRouter{fleet: f, attempts: shardAttempts, skewRetries: skewRetries}, nil
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
	}{Status: "ok", Role: "shard-gather", Shards: make([]shardHealth, len(g.backends))}
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			var body struct {
				Epoch      uint64 `json:"epoch"`
				ShardIndex *int   `json:"shard_index"`
			}
			ok, raw := g.probe(req.Context(), b)
			_ = json.Unmarshal(raw, &body)
			out.Shards[i] = shardHealth{URL: b.base, Healthy: ok, Epoch: body.Epoch, Index: body.ShardIndex}
		}(i, b)
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

// shardAnswer is one shard's outcome within a scatter: its last
// attempt, and the partial decoded from it when that was a 2xx.
type shardAnswer struct {
	attempt
	partial *shard.PartialResponse
}

// handleOLAP answers one cube query by scatter-gather: every shard
// must answer, or the query has no answer.
func (g *ShardRouter) handleOLAP(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	ctx, cancel := withBudget(req)
	defer cancel()
	// The body goes to every shard verbatim, and so does the client's
	// deadline header as it came: each attempt overwrites it with what
	// is left of the budget, and when it bounds nothing (malformed) it
	// is the shard's to refuse.
	rq := request{method: http.MethodPost, uri: "/api/olap/partial", body: body,
		header: http.Header{"Content-Type": {"application/json"}}}
	if h := req.Header.Get(olap.DeadlineHeader); h != "" {
		rq.header.Set(olap.DeadlineHeader, h)
	}
	var lastSkew error
	skewLeft, busyLeft := g.skewRetries, g.busyRetries
	for {
		results := g.scatter(ctx, rq)
		// A spent budget first: the shards it cut off are not dead.
		if budgetSpent(ctx) {
			g.writeDeadlineExceeded(w)
			return
		}
		// Dead shards next: a hole in the topology is an outage no
		// amount of backoff fixes, so it wins over busyness elsewhere.
		busyCount, busyAfter := 0, defaultRetryAfter
		for i, r := range results {
			switch r.outcome {
			case spent:
				// No deadline passed, so the client left; nobody to answer.
				return
			case unwell:
				http.Error(w, fmt.Sprintf("shard gather: shard %d (%s) unavailable, refusing partial answer: %v", i, g.backends[i].base, r.err), http.StatusBadGateway)
				return
			case busy:
				busyCount++
				busyAfter = max(busyAfter, r.retryAfter)
			}
		}
		// Busy shards: healthy but shedding. The scatter needs every
		// shard, so even one busy shard blocks the answer. With the WHOLE
		// fleet shedding a retry would just re-offer the load that caused
		// it, so that fails as fast as a spent busy budget.
		if busyCount > 0 {
			exhausted := busyCount == len(results) || busyLeft <= 0
			busyLeft--
			if !g.backoff(ctx, w, busyAfter, exhausted, fmt.Sprintf("%d/%d shards busy (shedding), retry later", busyCount, len(results))) {
				return
			}
			continue
		}
		resps := make([]*shard.PartialResponse, len(results))
		for i, r := range results {
			if r.partial == nil {
				// The shard itself rejected the query (an ill-typed filter,
				// a negative dice carat on its rows) or ran out of the
				// budget it was sent; its verdict is deterministic and
				// final.
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(r.status)
				_, _ = w.Write(r.body)
				return
			}
			resps[i] = r.partial
		}
		columns, rows, epoch, err := shard.Merge(resps)
		var answerErr shard.AnswerError
		if errors.As(err, &answerErr) {
			// The merged answer fails as the single node's does: a 422
			// with its JSON body.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
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
		w.Header().Set("X-Quarry-Version", fmt.Sprintf("%d", epoch))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(olap.RenderBody(columns, rows))
		return
	}
	http.Error(w, "shard gather: shards keep answering at different warehouse epochs: "+lastSkew.Error(), http.StatusServiceUnavailable)
}

// scatter puts the query to every shard's partial endpoint
// concurrently.
func (g *ShardRouter) scatter(ctx context.Context, rq request) []shardAnswer {
	results := make([]shardAnswer, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			results[i] = g.askShard(ctx, b, rq)
		}(i, b)
	}
	wg.Wait()
	return results
}

// askShard tries one shard up to g.attempts times while it is unwell.
// Any other outcome ends the asking: an answer is final, a spent budget
// leaves nothing to ask with, and a busy shard gets no tight per-shard
// retry — hammering an overloaded shard only deepens its backlog; the
// scatter loop decides whether to back off and retry the whole fleet.
func (g *ShardRouter) askShard(ctx context.Context, b *backend, rq request) shardAnswer {
	var last shardAnswer
	for try := 0; try < g.attempts; try++ {
		last = shardAnswer{attempt: g.do(ctx, b, rq)}
		if last.outcome == answered && last.status < 400 {
			last.partial = new(shard.PartialResponse)
			if err := last.partial.UnmarshalBinary(last.body); err != nil {
				last = shardAnswer{attempt: attempt{outcome: unwell, err: fmt.Errorf("undecodable partial answer: %w", err)}}
			}
		}
		if last.outcome != unwell {
			break
		}
	}
	return last
}
