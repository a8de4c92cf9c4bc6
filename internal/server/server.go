// Package server exposes Quarry's components over HTTP-based RESTful
// APIs, mirroring the paper's service-oriented architecture (§2.6).
//
// This file is the serving path. Every query endpoint is one trip
// through the same pipeline, serveQuery — read → validate budget →
// result-cache lookup → decode → predict class → admit → queue for a
// slot → execute → account → write → settle — and differs from the
// next only in the endpoint value it hands that pipeline: where its
// traffic is counted, whether its answers are result-cached, and the
// executor that runs the query and encodes the body. POST /api/olap (finalised
// rows) and POST /api/olap/partial (a shard's partial aggregates) are
// two such values; the admission controller (admission.go), the
// executor pool, the deadline and the accounting are shared by
// construction. Around the pipeline: stats, health, the replication
// feed and the post-reload cache/aggregate refresh.
//
// The design-time endpoints — elicitor, requirement lifecycle, designs,
// deploy, run, export — are in design.go.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quarry/internal/core"
	"quarry/internal/olap"
	"quarry/internal/replication"
	"quarry/internal/shard"
	mf "quarry/internal/storage/manifest"
)

// Options tunes the serving layer.
type Options struct {
	// OLAPConcurrency bounds the number of OLAP queries executing at
	// once; excess requests queue. 0 means 2×GOMAXPROCS.
	OLAPConcurrency int
	// OLAPCacheSize is the capacity of the LRU result cache (entries);
	// 0 means 256, negative disables caching.
	OLAPCacheSize int
	// ReadOnly rejects every design- or warehouse-mutating endpoint
	// (requirement lifecycle, deploy, run) with 403 — the replica
	// posture: a replica's warehouse is written only by its syncer,
	// and its design only by the bootstrap replay.
	ReadOnly bool
	// ReplicaStatus, when set, marks this node a replica in
	// /api/health and reports its replication lag there.
	ReplicaStatus func() replication.Status
	// SLOTarget is the latency budget the admission controller defends:
	// when an arriving OLAP request's projected queue wait plus its own
	// per-class cost estimate exceeds it, the request is shed with 429 +
	// Retry-After, so costly classes are refused at a lower backlog than
	// cheap ones. 0 disables shedding entirely.
	SLOTarget time.Duration
	// DefaultDeadline bounds every OLAP query's end-to-end time when
	// the client sends no X-Quarry-Deadline header; expiry answers 504
	// instead of holding the connection. 0 means no server-side
	// deadline.
	DefaultDeadline time.Duration
}

// Server serves a Platform.
type Server struct {
	p             *core.Platform
	mux           *http.ServeMux
	pool          chan struct{}
	readOnly      bool
	replicaStatus func() replication.Status
	// cache holds encoded OLAP answers keyed by the request's bytes at
	// a warehouse version; it is purged whenever /api/run reloads the
	// warehouse, and nil when caching is disabled.
	cache *olap.ResultCache
	// adm is the SLO-driven admission controller shared by every query
	// endpoint; always non-nil (shedding disabled when
	// SLOTarget is 0, but the per-class service-time tracking runs
	// regardless so /api/olap/stats can always report class costs).
	adm *admission
	// defaultDeadline is Options.DefaultDeadline.
	defaultDeadline time.Duration
	// olap is POST /api/olap's traffic, published by /api/olap/stats.
	// Partial (shard) traffic is not counted there — those counters
	// cover that endpoint alone — but the per-class admission stats see
	// it.
	olap traffic
	// refreshes tracks the background materialized-aggregate refreshes
	// kicked off by /api/run, so shutdown/tests can drain them.
	refreshes sync.WaitGroup
	// refreshMu/refreshActive/refreshAgain single-flight those
	// refreshes: rapid consecutive runs coalesce into one in-flight
	// refresh plus at most one follow-up (latest wins), instead of N
	// concurrent full materialization passes racing to install.
	refreshMu     sync.Mutex
	refreshActive bool
	refreshAgain  bool
}

// New wires the routes with default options.
func New(p *core.Platform) *Server { return NewWithOptions(p, Options{}) }

// NewWithOptions wires the routes.
func NewWithOptions(p *core.Platform, opts Options) *Server {
	if opts.OLAPConcurrency <= 0 {
		opts.OLAPConcurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if opts.OLAPCacheSize == 0 {
		opts.OLAPCacheSize = 256
	}
	s := &Server{
		p:               p,
		mux:             http.NewServeMux(),
		pool:            make(chan struct{}, opts.OLAPConcurrency),
		readOnly:        opts.ReadOnly,
		replicaStatus:   opts.ReplicaStatus,
		cache:           olap.NewResultCache(opts.OLAPCacheSize),
		adm:             newAdmission(opts.SLOTarget, opts.OLAPConcurrency),
		defaultDeadline: opts.DefaultDeadline,
	}
	s.mux.HandleFunc("GET /api/health", s.handleHealth)
	s.mux.HandleFunc("GET /api/ontology/graph", s.handleGraph)
	s.mux.HandleFunc("GET /api/ontology/search", s.handleSearch)
	s.mux.HandleFunc("GET /api/elicitor/foci", s.handleFoci)
	s.mux.HandleFunc("GET /api/elicitor/suggest", s.handleSuggest)
	s.mux.HandleFunc("GET /api/requirements", s.handleListRequirements)
	s.mux.HandleFunc("POST /api/requirements", s.mutating(s.handleAddRequirement))
	s.mux.HandleFunc("GET /api/requirements/{id}", s.handleGetRequirement)
	s.mux.HandleFunc("PUT /api/requirements/{id}", s.mutating(s.handleChangeRequirement))
	s.mux.HandleFunc("DELETE /api/requirements/{id}", s.mutating(s.handleRemoveRequirement))
	s.mux.HandleFunc("GET /api/design/md", s.handleUnifiedMD)
	s.mux.HandleFunc("GET /api/design/etl", s.handleUnifiedETL)
	s.mux.HandleFunc("GET /api/design/md/partial/{id}", s.handlePartialMD)
	s.mux.HandleFunc("GET /api/design/etl/partial/{id}", s.handlePartialETL)
	s.mux.HandleFunc("GET /api/quality", s.handleQuality)
	s.mux.HandleFunc("POST /api/deploy", s.mutating(s.handleDeploy))
	s.mux.HandleFunc("POST /api/run", s.mutating(s.handleRun))
	s.mux.HandleFunc("GET /api/export/{notation}", s.handleExport)
	// The query endpoints: one pipeline (serveQuery), two descriptions.
	// Both share the admission controller, the executor pool and the
	// deadline.
	s.mux.HandleFunc("POST /api/olap", s.serveQuery(&endpoint{traffic: &s.olap, cache: s.cache, ctype: "application/json", execute: executeOLAP}))
	s.mux.HandleFunc("POST /api/olap/partial", s.serveQuery(&endpoint{ctype: "application/octet-stream", execute: s.executePartial}))
	s.mux.HandleFunc("GET /api/olap/stats", s.handleOLAPStats)
	// Replication feed (the primary side of segment shipping): any
	// disk-backed node serves its committed manifest and immutable
	// segment files, so replicas can also chain off other replicas.
	s.mux.HandleFunc("GET /api/replication/manifest", s.handleReplicationManifest)
	s.mux.HandleFunc("GET /api/replication/segment/{name}", s.handleReplicationSegment)
	return s
}

// olapRequest is the JSON body of POST /api/olap and of
// POST /api/olap/partial.
type olapRequest struct {
	Fact     string   `json:"fact"`
	GroupBy  []string `json:"group_by"`
	Measures []struct {
		Out  string `json:"out"`
		Func string `json:"func"`
		Col  string `json:"col"`
	} `json:"measures"`
	Filter string `json:"filter,omitempty"`
	// RollUp maps xMD dimension names to the hierarchy level to
	// aggregate at (e.g. {"Supplier": "Nation"}).
	RollUp map[string]string `json:"roll_up,omitempty"`
	// Dice applies a diamond dice before aggregation.
	Dice *struct {
		Func       string             `json:"func"`
		Col        string             `json:"col,omitempty"`
		Thresholds map[string]float64 `json:"thresholds"`
	} `json:"dice,omitempty"`
	// Oracle answers via the star-flow reference executor instead of
	// the vectorized fast path (slower; for cross-checking).
	Oracle bool `json:"oracle,omitempty"`
}

// cubeQuery is the request as the OLAP engine takes it.
func (b *olapRequest) cubeQuery() olap.CubeQuery {
	q := olap.CubeQuery{Fact: b.Fact, GroupBy: b.GroupBy, Filter: b.Filter, RollUp: b.RollUp}
	for _, m := range b.Measures {
		q.Measures = append(q.Measures, olap.MeasureSpec{Out: m.Out, Func: m.Func, Col: m.Col})
	}
	if b.Dice != nil {
		q.Dice = &olap.DiceSpec{Func: b.Dice.Func, Col: b.Dice.Col, Thresholds: b.Dice.Thresholds}
	}
	return q
}

// outcome is where one query request lands in its endpoint's traffic
// counters.
type outcome int

const (
	answered outcome = iota
	shed
	// failed is every non-2xx that is not a shed: bad bodies and
	// headers, abandoned queued queries, failed executions.
	failed
	// expired is a failure by deadline expiry (a 504), queued or
	// mid-query.
	expired
)

// traffic is one endpoint's monotonic request counters. record is the
// only writer and lands every request in exactly one of answered /
// shed / errors, so the accounting identity
//
//	queries = answered + shed + errors
//
// holds by construction — load harnesses (quarrybench) scrape before
// and after a run and reconcile their client-side deltas against it.
// deadline counts the expired subset of errors.
type traffic struct {
	queries, answered, shed, errors, deadline atomic.Int64
}

// record counts one request; on a nil receiver (an endpoint whose
// traffic is not published) it counts nothing.
func (t *traffic) record(o outcome) {
	if t == nil {
		return
	}
	t.queries.Add(1)
	switch o {
	case answered:
		t.answered.Add(1)
	case shed:
		t.shed.Add(1)
	case expired:
		t.deadline.Add(1)
		fallthrough
	case failed:
		t.errors.Add(1)
	}
}

// endpoint is what a query endpoint tells serveQuery about itself;
// everything else about serving a query is the same for all of them.
type endpoint struct {
	// traffic counts the endpoint's requests; nil leaves them uncounted.
	traffic *traffic
	// cache makes the endpoint result-cached: hits are answered before
	// decoding and admission, completed answers are published. nil:
	// never cached.
	cache *olap.ResultCache
	// ctype is the Content-Type of the endpoint's answers.
	ctype string
	// execute runs the decoded query (oracle: the request asked for the
	// reference executor) and encodes the answer's body. It runs holding
	// an executor slot, under the request's deadline.
	execute func(ctx context.Context, oe *olap.Engine, q olap.CubeQuery, oracle bool) (answer, error)
}

// answer is an executed query, encoded.
type answer struct {
	// body is the answer's bytes as they are written: the JSON document
	// of a finalised answer, or a shard's partial frame.
	body []byte
	// version is the warehouse version of the snapshot the answer
	// actually came from (X-Quarry-Version), so clients cross-checking
	// two answers (e.g. quarrybench's oracle spot checks) can tell
	// version skew from disagreement.
	version uint64
	// class is the answer-source class the executor stamped
	// (X-Quarry-Class); "" when it stamps none, and the class predicted
	// at admission stands.
	class string
}

// statusError is an execution failure that names its own HTTP status
// instead of the default 422.
type statusError struct {
	status int
	error
}

// reply is what a trip through the query pipeline comes to: where the
// request is counted and what is written. A nil body writes nothing —
// the client is gone; a []byte is an answer, written as it is; any
// other body is encoded as JSON.
type reply struct {
	outcome outcome
	status  int
	body    any
}

// failure is the reply to a request that failed with err.
func failure(status int, err error) reply {
	return reply{outcome: failed, status: status, body: errorBody{Error: err.Error()}}
}

// hold is what a query took on its way through the pipeline and must
// give back once its reply is written.
type hold struct {
	admitted bool
	tkt      ticket
	// class is the class the service time is observed under: the
	// predicted one until an executor stamps the class that ACTUALLY
	// answered (a predicted fast-path query may have been served by a
	// materialized aggregate), keeping the estimates honest per class.
	class queryClass
	// execStart is when the query got its executor slot; zero while it
	// holds none.
	execStart time.Time
}

// shedResponse is the body of a 429: the request was refused by the
// admission controller, not failed — retrying after RetryAfterMs is
// expected to succeed.
type shedResponse struct {
	Error           string  `json:"error"`
	Shed            bool    `json:"shed"`
	Class           string  `json:"class"`
	ProjectedWaitMs float64 `json:"projected_wait_ms"`
	RetryAfterMs    int64   `json:"retry_after_ms"`
}

// deadlineResponse is the body of a 504: the query's deadline expired
// before it finished. Partial-progress fields tell the caller where
// the budget went (queued vs executing).
type deadlineResponse struct {
	Error            string  `json:"error"`
	DeadlineExceeded bool    `json:"deadline_exceeded"`
	Class            string  `json:"class"`
	BudgetMs         float64 `json:"budget_ms"`
	ElapsedMs        float64 `json:"elapsed_ms"`
	QueueWaitMs      float64 `json:"queue_wait_ms"`
	// Executed is false when the deadline expired while still queued
	// for an executor slot: the query itself never started.
	Executed bool `json:"executed"`
}

// queryFailure is the reply to an admitted query that did not produce
// a result: the status the executor named, if it named one; silence
// for a vanished client; 504 with partial-progress stats when the
// server-side deadline expired; 422 otherwise.
func queryFailure(r *http.Request, ctx context.Context, held hold, budget time.Duration, arrival time.Time, err error) reply {
	executed := !held.execStart.IsZero()
	var named statusError
	switch {
	case errors.As(err, &named):
		return failure(named.status, err)
	case r.Context().Err() != nil:
		// The CLIENT's context died: it disconnected (or gave up on its
		// own deadline). If the failure happened while still queued
		// there is a last-gasp 503 attempt, mirroring the pre-deadline
		// behaviour; mid-query there is no one left to answer.
		if !executed {
			return failure(http.StatusServiceUnavailable, r.Context().Err())
		}
		return reply{outcome: failed}
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		elapsed := time.Since(arrival)
		queueWait := elapsed
		if executed {
			queueWait = held.execStart.Sub(arrival)
		}
		class := classNames[held.class]
		return reply{outcome: expired, status: http.StatusGatewayTimeout, body: deadlineResponse{
			Error: fmt.Sprintf("deadline exceeded: %s budget spent (%s queued) before the %s query finished",
				budget, queueWait.Round(time.Millisecond), class),
			DeadlineExceeded: true,
			Class:            class,
			BudgetMs:         float64(budget) / float64(time.Millisecond),
			ElapsedMs:        float64(elapsed) / float64(time.Millisecond),
			QueueWaitMs:      float64(queueWait) / float64(time.Millisecond),
			Executed:         executed,
		}}
	}
	return failure(http.StatusUnprocessableEntity, err)
}

// serveQuery is the one pipeline every query endpoint runs:
//
//	read → validate budget → result-cache lookup → decode →
//	predict class → admit → queue for a slot → execute → account →
//	write → settle
//
// answerQuery walks the stages up to execute and may leave at any of
// them; wherever it leaves, it leaves with a reply, and the rest
// happens here, once: the request is counted, the reply written, and
// what the query held given back.
func (s *Server) serveQuery(ep *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var held hold
		// The slot is held until the response is WRITTEN, not just until the
		// query executes: marshalling a large result is real work, and the
		// pool is what bounds it (releasing early lets an overloaded node
		// marshal dozens of multi-megabyte answers at once and collapse).
		// The admission EWMA must therefore observe the same span the slot
		// is held for — execution plus serialization — or the backlog
		// projection promises a drain rate the pool cannot deliver and
		// admitted requests overshoot the SLO; that is why the ticket is
		// settled after the write, not after the query. The slot time was
		// burned even if the query failed (or panicked), so it still feeds
		// the class's service-time estimate; a query that never got a slot
		// observes nothing.
		defer func() {
			if !held.admitted {
				return
			}
			slotted := !held.execStart.IsZero()
			execNs := int64(-1)
			if slotted {
				execNs = time.Since(held.execStart).Nanoseconds()
			}
			s.adm.done(held.tkt, held.class, execNs)
			if slotted {
				<-s.pool
			}
		}()
		rep := s.answerQuery(ep, w, r, &held)
		// Counted before the write: a client holding its answer must find
		// it in the counters.
		ep.traffic.record(rep.outcome)
		switch body := rep.body.(type) {
		case nil:
		case []byte:
			w.Header().Set("Content-Type", ep.ctype)
			w.WriteHeader(rep.status)
			_, _ = w.Write(body)
		default:
			writeJSON(w, rep.status, body)
		}
	}
}

// decodeObject decodes a request body that must be exactly one JSON
// object: null, an array or a scalar is refused, and so is anything but
// white space after the object (json.Unmarshal's rule).
func decodeObject(raw []byte, v any) error {
	if lead := bytes.TrimLeft(raw, " \t\r\n"); len(lead) == 0 || lead[0] != '{' {
		return errors.New("request body is not a JSON object")
	}
	return json.Unmarshal(raw, v)
}

// answerQuery is serveQuery's stages from read to execute. It sets
// response headers but writes nothing: status and body travel in the
// reply, and what the query takes on the way is noted in held.
func (s *Server) answerQuery(ep *endpoint, w http.ResponseWriter, r *http.Request, held *hold) reply {
	arrival := time.Now()
	hdr := w.Header()
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return failure(http.StatusBadRequest, err)
	}
	// The budget: header first, server default second, 0 for none. A
	// malformed header is the client's error whatever else is true of
	// the request — so it is judged before the cache is asked.
	budget, err := olap.ParseDeadline(r.Header.Get(olap.DeadlineHeader))
	if err != nil {
		return failure(http.StatusBadRequest, err)
	}
	if budget == 0 {
		budget = s.defaultDeadline
	}
	// Cache lookup: the request's own bytes at the current warehouse
	// version, before they are decoded. Only completed answers are
	// published, and identical bytes decode to the same query, so a hit
	// answers what decoding and executing would; a body refused below
	// is never in the cache. A lookup one version behind is merely a
	// miss; storing is the dangerous direction, so Put below files the
	// answer under the version of the snapshot the query ACTUALLY ran
	// against (ans.version) — reusing the version read here would, when
	// an ETL run commits between the two, file a newer-snapshot answer
	// under the older version and serve stale-keyed data forever after.
	// Hits are answered before touching the query pool — and before
	// admission control: a cache hit costs microseconds and is ALWAYS
	// admitted, which is what keeps dashboards alive while the expensive
	// classes shed.
	if db := s.p.DB(); db != nil && ep.cache != nil {
		version := db.Version()
		if cached, ok := ep.cache.Get(version, raw); ok {
			s.adm.observe(classCacheHit, time.Since(arrival).Nanoseconds())
			hdr.Set("X-Quarry-Cache", "hit")
			hdr.Set("X-Quarry-Class", olap.ClassCacheHit)
			hdr.Set("X-Quarry-Version", strconv.FormatUint(version, 10))
			return reply{outcome: answered, status: http.StatusOK, body: cached}
		}
	}
	var body olapRequest
	if err := decodeObject(raw, &body); err != nil {
		return failure(http.StatusBadRequest, err)
	}
	// The deadline rides the request context end-to-end: queue wait
	// below, then the executors' batch-boundary checks, so an expired
	// query frees its slot at the next batch instead of running to
	// completion for an answer nobody is owed anymore.
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, arrival.Add(budget))
		defer cancel()
	}
	// Admission: project this request's queue wait from the current
	// backlog and its own class cost; shed with 429 + Retry-After when
	// the projection blows the SLO. Refusing here costs microseconds —
	// the whole point is to spend them instead of a timeout. Every
	// endpoint shares the one controller: an overloaded shard sheds its
	// partials with 429 too, and the gather router treats that as "busy,
	// retry later" rather than a dead shard.
	held.class = predictClass(body.Oracle, body.Dice != nil)
	var retryAfter, projected time.Duration
	if held.tkt, held.admitted, retryAfter, projected = s.adm.admit(held.class); !held.admitted {
		hdr.Set("Retry-After", strconv.FormatInt(int64(retryAfter.Seconds()+0.5), 10))
		return reply{outcome: shed, status: http.StatusTooManyRequests, body: shedResponse{
			Error: fmt.Sprintf("overloaded: projected wait %s exceeds the SLO; retry after %s",
				projected.Round(time.Millisecond), retryAfter),
			Shed:            true,
			Class:           classNames[held.class],
			ProjectedWaitMs: float64(projected) / float64(time.Millisecond),
			RetryAfterMs:    retryAfter.Milliseconds(),
		}}
	}
	// Bounded-concurrency query pool: at most cap(s.pool) queries
	// execute at once, the rest queue here. A client that disconnects
	// while queued abandons its slot request instead of burning a
	// query on an answer nobody will read; one that disconnects after
	// acquiring the slot cancels the query itself at its next batch
	// boundary (the request context flows into the executors).
	select {
	case s.pool <- struct{}{}:
	case <-ctx.Done():
		return queryFailure(r, ctx, *held, budget, arrival, ctx.Err())
	}
	held.execStart = time.Now()
	if testingOLAPBeforeQuery != nil {
		testingOLAPBeforeQuery()
	}
	oe, err := s.p.OLAP()
	if err != nil {
		return failure(http.StatusUnprocessableEntity, err)
	}
	ans, err := ep.execute(ctx, oe, body.cubeQuery(), body.Oracle)
	if err != nil {
		return queryFailure(r, ctx, *held, budget, arrival, err)
	}
	if ep.cache != nil {
		// An expired or failed query never reaches this Put: only
		// completed answers are published to the result cache.
		ep.cache.Put(ans.version, raw, ans.body)
		hdr.Set("X-Quarry-Cache", "miss")
	}
	if ans.class != "" {
		hdr.Set("X-Quarry-Class", ans.class)
		held.class = classOf(ans.class)
	}
	hdr.Set("X-Quarry-Version", strconv.FormatUint(ans.version, 10))
	return reply{outcome: answered, status: http.StatusOK, body: ans.body}
}

// executeOLAP is POST /api/olap's executor: the cube query answered in
// full, by the vectorized fast path or — oracle — the star-flow
// reference executor.
func executeOLAP(ctx context.Context, oe *olap.Engine, q olap.CubeQuery, oracle bool) (answer, error) {
	var res *olap.Result
	var err error
	if oracle {
		res, err = oe.QueryStarFlowContext(ctx, q)
	} else {
		res, err = oe.QueryContext(ctx, q)
	}
	if err != nil {
		return answer{}, err
	}
	return answer{body: olap.AppendBody(nil, res.Columns, res.Rows), version: res.Version, class: res.Class}, nil
}

// executePartial is POST /api/olap/partial's executor: the cube query
// answered as pre-finalisation partial aggregates — the shard side of
// scatter-gather (see internal/shard), as the binary frame the gather
// decodes. A non-sharded node answers as the single shard of a 1-way
// topology, which is also the degenerate case the identity tests pin.
//
// With oracle, the shard self-verifies before answering: it decodes
// the frame it is about to send, finalises it as a 1-way merge and
// compares the bytes against its local star-flow reference executor
// over the same partition; a mismatch — in the fold or in the codec —
// is a 500, never a wrong partial.
//
// The answer's class is the partial's source (fast, dice or matagg),
// as /api/olap stamps its own, and oracle for a self-verified one,
// which ran the reference executor too.
func (s *Server) executePartial(ctx context.Context, oe *olap.Engine, q olap.CubeQuery, oracle bool) (answer, error) {
	partial, err := oe.QueryPartialContext(ctx, q)
	if err != nil {
		return answer{}, err
	}
	spec := s.p.Shard()
	if !spec.Enabled() {
		spec = shard.Spec{Index: 0, Count: 1}
	}
	resp := shard.EncodePartial(spec.Index, spec.Count, partial.Version, partial.Columns, partial.GroupCols, partial.Aggs, partial.Groups)
	resp.Dice = partial.Dice
	frame, err := resp.MarshalBinary()
	if err != nil {
		return answer{}, statusError{http.StatusInternalServerError, err}
	}
	ans := answer{body: frame, version: partial.Version, class: partial.Class}
	if oracle {
		if err := selfVerifyPartial(ctx, oe, q, frame); err != nil {
			return answer{}, statusError{http.StatusInternalServerError, err}
		}
		ans.class = olap.ClassOracle
	}
	return ans, nil
}

// selfVerifyPartial decodes the shard's own frame, finalises it as a
// 1-way merge and compares the rendered rows byte-for-byte against the
// star-flow reference executor over the same local partition.
func selfVerifyPartial(ctx context.Context, oe *olap.Engine, q olap.CubeQuery, frame []byte) error {
	solo := new(shard.PartialResponse)
	if err := solo.UnmarshalBinary(frame); err != nil {
		return fmt.Errorf("self-verify: decoding own partial: %w", err)
	}
	solo.ShardIndex, solo.ShardCount = 0, 1
	cols, rows, _, err := shard.Merge([]*shard.PartialResponse{solo})
	if err != nil {
		return fmt.Errorf("self-verify: finalising own partial: %w", err)
	}
	want, err := oe.QueryStarFlowContext(ctx, q)
	if err != nil {
		return fmt.Errorf("self-verify: reference executor: %w", err)
	}
	if len(cols) != len(want.Columns) || len(rows) != len(want.Rows) {
		return fmt.Errorf("self-verify: partial finalises to %dx%d, reference is %dx%d", len(rows), len(cols), len(want.Rows), len(want.Columns))
	}
	for i, row := range rows {
		got := olap.RenderRow(row)
		ref := olap.RenderRow(want.Rows[i])
		for j := range got {
			if got[j] != ref[j] {
				return fmt.Errorf("self-verify: row %d column %q: partial %q, reference %q", i, cols[j], got[j], ref[j])
			}
		}
	}
	return nil
}

// testingOLAPBeforeQuery, when set, runs on every query endpoint after
// the cache miss — with the query slot already held — and before query
// execution: the seam
// race-shaped tests use to commit an ETL run, or cancel the client,
// inside that window. Never set outside tests.
var testingOLAPBeforeQuery func()

// olapStatsResponse is the admin view of the serving layer's caches
// and admission controller.
type olapStatsResponse struct {
	// Raw POST /api/olap traffic counters, all monotonic. Every request
	// lands in exactly one of answered / shed / query_errors, so over
	// any window with no requests in flight
	//
	//	queries = answered + shed + query_errors
	//
	// holds exactly (quarrybench's stats-delta reconciliation depends
	// on it). query_errors counts every non-2xx that is not a shed —
	// bad bodies, abandoned queued queries, failed executions, and
	// deadline expiries; deadline_exceeded separately counts the 504
	// subset of those errors.
	Queries          int64 `json:"queries"`
	Answered         int64 `json:"answered"`
	Shed             int64 `json:"shed"`
	QueryErrors      int64 `json:"query_errors"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// Result cache (LRU of answers keyed by request bytes + version).
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	// Dimension build-side cache: lookups by every engine this process
	// built (matagg repeats them as dim_cache_*).
	DimCacheHits   int64 `json:"dim_cache_hits"`
	DimCacheMisses int64 `json:"dim_cache_misses"`
	// Warehouse structural version (bumped once per ETL run commit).
	WarehouseVersion uint64 `json:"warehouse_version"`
	// Admission controller: SLO config, projected wait, and per-class
	// service-time estimates / occupancy / shed counts. Partial
	// (shard) traffic shows up here but not in the counters above.
	Admission admissionStats `json:"admission"`
	// Materialized-aggregate store; null when disabled.
	MatAgg *olap.MatAggStats `json:"matagg,omitempty"`
}

// scheduleMatAggRefresh kicks a background aggregate refresh with
// single-flight coalescing: if one is already running, it is flagged
// to run once more when done (picking up the newest version) instead
// of spawning a redundant concurrent materialization pass whose
// entries the store's install guard would discard anyway.
func (s *Server) scheduleMatAggRefresh() {
	mat := s.p.MatAgg()
	if mat == nil {
		return
	}
	s.refreshMu.Lock()
	if s.refreshActive {
		s.refreshAgain = true
		s.refreshMu.Unlock()
		return
	}
	s.refreshActive = true
	s.refreshMu.Unlock()
	s.refreshes.Add(1)
	go func() {
		defer s.refreshes.Done()
		for {
			if oe, err := s.p.OLAP(); err == nil {
				_, _ = mat.Refresh(oe) // failures are surfaced via /api/olap/stats
			}
			s.refreshMu.Lock()
			if !s.refreshAgain {
				s.refreshActive = false
				s.refreshMu.Unlock()
				return
			}
			s.refreshAgain = false
			s.refreshMu.Unlock()
		}
	}()
}

func (s *Server) handleOLAPStats(w http.ResponseWriter, _ *http.Request) {
	var out olapStatsResponse
	out.Queries = s.olap.queries.Load()
	out.Answered = s.olap.answered.Load()
	out.Shed = s.olap.shed.Load()
	out.QueryErrors = s.olap.errors.Load()
	out.DeadlineExceeded = s.olap.deadline.Load()
	out.Admission = s.adm.stats()
	out.CacheHits, out.CacheMisses = s.cache.Stats()
	out.CacheEntries = s.cache.Len()
	out.DimCacheHits, out.DimCacheMisses = s.p.DimCacheStats()
	if db := s.p.DB(); db != nil {
		out.WarehouseVersion = db.Version()
	}
	if mat := s.p.MatAgg(); mat != nil {
		st := mat.Stats()
		st.DimCacheHits, st.DimCacheMisses = out.DimCacheHits, out.DimCacheMisses
		out.MatAgg = &st
	}
	writeJSON(w, http.StatusOK, out)
}

// WarehouseChanged tells the serving layer the warehouse moved to a
// new committed version: cached OLAP results are purged (they are
// version-keyed, so this is hygiene, not correctness) and the hot
// aggregates re-materialize in the background. /api/run calls it
// after an ETL commit; a replica's sync loop calls it after adopting
// a new manifest.
func (s *Server) WarehouseChanged() {
	s.cache.Purge()
	// Until the refresh completes, queries fall back to the base-fact
	// path — the per-entry version check makes serving a stale
	// aggregate impossible either way.
	s.scheduleMatAggRefresh()
}

// handleReplicationManifest streams the committed manifest of a
// disk-backed warehouse — the entry point of the replication
// protocol. Reading the file (not the in-memory catalog) is what
// keeps the feed byte-identical to the commit point: whatever rename
// last landed is what replicas adopt.
func (s *Server) handleReplicationManifest(w http.ResponseWriter, _ *http.Request) {
	dir := s.storageDir()
	if dir == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("replication requires a disk-backed warehouse (-data-dir)"))
		return
	}
	f, err := os.Open(filepath.Join(dir, mf.FileName))
	if err != nil {
		if os.IsNotExist(err) {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no committed manifest yet"))
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

// handleReplicationSegment streams one immutable segment file. A 404
// means the segment was garbage-collected since the manifest the
// replica is working from (a republish or compaction landed); the
// replica's next pass fetches the newer manifest.
func (s *Server) handleReplicationSegment(w http.ResponseWriter, r *http.Request) {
	dir := s.storageDir()
	if dir == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("replication requires a disk-backed warehouse (-data-dir)"))
		return
	}
	name := r.PathValue("name")
	// The name check doubles as the path-traversal guard: segment
	// names contain no separators or dots beyond their fixed suffix.
	if !mf.IsSegmentName(name) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid segment name %q", name))
		return
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			writeErr(w, http.StatusNotFound, fmt.Errorf("segment %s no longer exists (superseded by a newer commit)", name))
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

func (s *Server) storageDir() string {
	if db := s.p.DB(); db != nil {
		return db.StorageDir()
	}
	return ""
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	// Operational fingerprint of the warehouse: which backend it runs
	// on ("disk" backends name their directory), and the committed
	// version — the same version every OLAP result and materialized
	// aggregate is keyed on, so operators can correlate cache
	// behaviour with reloads.
	resp := map[string]any{"status": "ok"}
	// Overload posture: whether this node sheds, and the lifetime
	// shed/deadline counters — the first numbers to look at when
	// clients report 429s or 504s.
	if s.adm.slo > 0 {
		resp["slo_target_ms"] = float64(s.adm.slo) / float64(time.Millisecond)
	}
	resp["shed"] = s.olap.shed.Load()
	resp["deadline_exceeded"] = s.olap.deadline.Load()
	if s.replicaStatus != nil {
		resp["role"] = "replica"
		resp["replica"] = s.replicaStatus()
	} else {
		resp["role"] = "primary"
	}
	// Shard identity + epoch: what the gather router polls to verify
	// the topology it scatters over, and what an operator compares
	// across shards to spot a node loading out of lockstep.
	if spec := s.p.Shard(); spec.Enabled() {
		resp["shard_index"] = spec.Index
		resp["shard_count"] = spec.Count
		if db := s.p.DB(); db != nil {
			resp["epoch"] = db.Version()
		}
	}
	if db := s.p.DB(); db != nil {
		backend := "memory"
		if dir := db.StorageDir(); dir != "" {
			backend = "disk"
			resp["storage_dir"] = dir
		}
		resp["storage"] = backend
		resp["warehouse_version"] = db.Version()
		// Disk footprint: per-table segment counts and bytes, plus the
		// totals — the numbers an operator watches to see compaction
		// keeping segment counts bounded and the format-2 encodings
		// holding the on-disk size down.
		if stats := db.DiskStats(); stats != nil {
			segs, bytes := 0, int64(0)
			for _, st := range stats {
				segs += st.Segments
				bytes += st.Bytes
			}
			resp["disk_tables"] = stats
			resp["disk_segments"] = segs
			resp["disk_bytes"] = bytes
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
