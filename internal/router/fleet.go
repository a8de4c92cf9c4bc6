// The fleet core: what every hop from a router to a quarryd has in
// common, whichever way the backends divide the data. A fleet owns the
// backend set with its health flags and the probe, buffers a request body
// once so attempts can replay it, sends ONE attempt at a time (do) —
// stamped with what is left of the client's deadline budget and
// classified into one of four outcomes — and ends a busy round the same
// way for both routers (backoff). The replica Router ("any one of N")
// and the ShardRouter ("all of N, merged") are policies over these
// outcomes; neither touches the wire itself.
//
// Busy is not dead. A 429 (admission-control shed) or 503 (queue
// refusal) is a HEALTHY backend protecting itself: it must never be
// demoted — during an overload spike every replica sheds, and
// demote-on-429 would turn load shedding into mass demotion and a
// fleet-wide 502. Busy answers are waited out with jittered backoff
// honoring the backend's Retry-After, under a per-query retry budget so
// the retries themselves cannot amplify the overload; a query whose
// budget runs out is answered with an aggregated 429 + Retry-After —
// "come back later", not "the fleet is dead".
package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"quarry/internal/olap"
)

// maxBodyBytes bounds the buffered request body. OLAP requests are a
// few hundred bytes of SQL or xRQ; anything near the cap is abuse.
const maxBodyBytes = 1 << 20

// defaultRetryAfter is assumed when a busy answer carries no
// (parseable) Retry-After header.
const defaultRetryAfter = time.Second

// Options tunes a router. One convention throughout: the retry counts
// are literal (0 or less means none — quarryrouter's flags carry the
// defaults), and the two fields for which zero means nothing, Attempts
// and MaxRetryAfter, take their documented default at zero.
type Options struct {
	// BusyRetries is how many extra rounds one query may spend waiting
	// out busy (429/503) backends before it is answered with an
	// aggregated 429. A round is a pass over the ring for the replica
	// router and a whole scatter for the shard gather. Bounded so
	// retries cannot multiply offered load during the very overload
	// that caused them.
	BusyRetries int
	// MaxRetryAfter caps the backoff honored from a backend's
	// Retry-After header (default 2s), so one absurd header cannot park
	// requests.
	MaxRetryAfter time.Duration
	// Attempts is how many times the gather tries one shard per scatter
	// when it is unwell — transport errors and non-busy 5xx (default 2;
	// the replica router tries the next replica instead).
	Attempts int
	// SkewRetries bounds the gather's whole-scatter retries when shards
	// answer at different epochs.
	SkewRetries int
}

// backend is one quarryd behind a router.
type backend struct {
	base    string
	healthy atomic.Bool
}

// fleet is the state and the wire both routers share.
type fleet struct {
	// who names the router in the answers it writes itself.
	who      string
	backends []*backend
	client   *http.Client
	// busyRetries is Options.BusyRetries, maxRetryAfter the resolved
	// Options.MaxRetryAfter.
	busyRetries   int
	maxRetryAfter time.Duration
	// sleep is the backoff primitive (seam for tests; sleepCtx
	// otherwise): false means ctx ended first.
	sleep func(ctx context.Context, d time.Duration) bool
}

// newFleet builds the core over the given base URLs (kind names them
// in errors). All backends start healthy — the first failed request or
// health probe demotes them.
func newFleet(who, kind string, urls []string, client *http.Client, opts Options) (fleet, error) {
	if len(urls) == 0 {
		return fleet{}, fmt.Errorf("router: no %ss configured", kind)
	}
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.MaxRetryAfter <= 0 {
		opts.MaxRetryAfter = 2 * time.Second
	}
	f := fleet{
		who:           who,
		client:        client,
		busyRetries:   opts.BusyRetries,
		maxRetryAfter: opts.MaxRetryAfter,
		sleep:         sleepCtx,
	}
	for _, raw := range urls {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" {
			return fleet{}, fmt.Errorf("router: empty %s URL", kind)
		}
		b := &backend{base: base}
		b.healthy.Store(true)
		f.backends = append(f.backends, b)
	}
	return f, nil
}

// probe health-checks one backend (GET /api/health): whether it
// answered 200, and whatever body it sent. What a verdict does to the
// backend's liveness flag is the policy's call.
func (f *fleet) probe(ctx context.Context, b *backend) (ok bool, body []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/api/health", nil)
	if err != nil {
		return false, nil
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false, nil
	}
	defer resp.Body.Close()
	body, _ = io.ReadAll(resp.Body)
	return resp.StatusCode == http.StatusOK, body
}

// readBody buffers the request body so a failed attempt can be
// replayed on another backend, or the same one later. false means the
// refusal has been written.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBodyBytes+1))
	if err != nil {
		http.Error(w, "router: reading request body", http.StatusBadRequest)
		return nil, false
	}
	if len(body) > maxBodyBytes {
		http.Error(w, "router: request body too large", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body, true
}

// withBudget bounds the request's context by its deadline header: both
// routers hold the budget to the moment THEY received the request and
// send each attempt only what is left of it, so a backoff sleep or a
// failed attempt spends the client's budget instead of restarting it at
// the next backend. A header quarryd would refuse bounds nothing: it
// travels on verbatim and the backend's 400 is the answer.
func withBudget(req *http.Request) (context.Context, context.CancelFunc) {
	d, err := olap.ParseDeadline(req.Header.Get(olap.DeadlineHeader))
	if err != nil || d == 0 {
		return context.WithCancel(req.Context())
	}
	return context.WithTimeout(req.Context(), d)
}

// budgetLeft is what remains of ctx's deadline (bounded false: it has
// none) — asked of the clock, because ctx.Err() lags it by a timer.
func budgetLeft(ctx context.Context) (left time.Duration, bounded bool) {
	deadline, bounded := ctx.Deadline()
	return time.Until(deadline), bounded
}

// budgetSpent reports whether ctx's deadline has passed.
func budgetSpent(ctx context.Context) bool {
	left, bounded := budgetLeft(ctx)
	return bounded && left <= 0
}

// writeDeadlineExceeded answers a query whose budget ran out at the
// router with the status quarryd uses for the same condition.
func (f *fleet) writeDeadlineExceeded(w http.ResponseWriter) {
	http.Error(w, f.who+": deadline exceeded: the "+olap.DeadlineHeader+" budget was spent before a backend answered", http.StatusGatewayTimeout)
}

// request is what one attempt replays: the client's request as a
// policy wants it put to a backend.
type request struct {
	method string
	uri    string // path and query, appended to the backend's base URL
	header http.Header
	body   []byte
}

// outcome classifies one attempt. What to do about each class — try
// another backend, try this one again, demote it, fail the query — is
// the policies' business.
type outcome int

const (
	// answered: the backend's own verdict on the query — a 2xx, its 4xx
	// (deterministic: every backend would say the same), or its 504 (the
	// budget it was sent is spent; retrying cannot bring it back).
	answered outcome = iota
	// busy: 429 or 503 — healthy, but refusing work right now.
	busy
	// unwell: no usable verdict — a transport error, a response that
	// could not be read to its end, or a 5xx that is not a 504.
	unwell
	// spent: the client's budget ran out (or the client left) before or
	// during the attempt, which says nothing about the backend.
	spent
)

// attempt is one backend's answer to one try. The response is fully
// buffered: one that cannot be read to its end must not be
// half-streamed to the client, or a retry would corrupt it.
type attempt struct {
	outcome outcome
	// status, header and body are the backend's response (answered).
	status int
	header http.Header
	body   []byte
	// retryAfter is a busy backend's (uncapped) suggestion.
	retryAfter time.Duration
	// err says what was wrong with a busy or unwell backend.
	err error
}

// isBusyStatus classifies the statuses that mean "healthy but
// refusing work right now".
func isBusyStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// do sends one attempt to one backend, stamped with what is left of
// the deadline budget in whole milliseconds rounded up (quarryd refuses
// a zero budget), and classifies what came back.
func (f *fleet) do(ctx context.Context, b *backend, rq request) attempt {
	out, err := http.NewRequestWithContext(ctx, rq.method, b.base+rq.uri, bytes.NewReader(rq.body))
	if err != nil {
		return attempt{outcome: unwell, err: err}
	}
	out.Header = rq.header.Clone()
	if left, bounded := budgetLeft(ctx); bounded {
		if left <= 0 {
			return attempt{outcome: spent}
		}
		ms := (left + time.Millisecond - 1) / time.Millisecond
		out.Header.Set(olap.DeadlineHeader, strconv.FormatInt(int64(ms), 10))
	}
	var body []byte
	resp, err := f.client.Do(out)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	switch {
	case budgetSpent(ctx) || ctx.Err() != nil:
		return attempt{outcome: spent}
	case err != nil:
		return attempt{outcome: unwell, err: err}
	case isBusyStatus(resp.StatusCode):
		return attempt{outcome: busy, retryAfter: retryAfterOf(resp.Header), err: fmt.Errorf("HTTP %d (busy)", resp.StatusCode)}
	case resp.StatusCode >= 500 && resp.StatusCode != http.StatusGatewayTimeout:
		return attempt{outcome: unwell, err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	}
	return attempt{outcome: answered, status: resp.StatusCode, header: resp.Header, body: body}
}

// retryAfterOf reads a Retry-After header (whole seconds — the only
// form quarryd emits; HTTP-dates fall back to the default).
func retryAfterOf(hdr http.Header) time.Duration {
	if s, err := strconv.ParseInt(strings.TrimSpace(hdr.Get("Retry-After")), 10, 64); err == nil && s > 0 {
		return time.Duration(s) * time.Second
	}
	return defaultRetryAfter
}

// backoff ends a round that found backends busy, after the longest
// Retry-After any of them suggested (capped). With retries left it
// sleeps and reports true: go another round. Otherwise the query is
// over and answered here — an aggregated 429 + Retry-After saying why
// when the busy budget is exhausted (the fleet is alive, the client
// should back off, and the router must not keep re-offering the load
// that caused the shedding), a 504 when the deadline budget ran out
// during the sleep, nothing when the client left.
func (f *fleet) backoff(ctx context.Context, w http.ResponseWriter, busyAfter time.Duration, exhausted bool, why string) bool {
	if busyAfter > f.maxRetryAfter {
		busyAfter = f.maxRetryAfter
	}
	if exhausted {
		w.Header().Set("Retry-After", strconv.FormatInt(int64(busyAfter.Seconds()+0.5), 10))
		http.Error(w, f.who+": "+why, http.StatusTooManyRequests)
		return false
	}
	if !f.sleep(ctx, jittered(busyAfter)) {
		if budgetSpent(ctx) {
			f.writeDeadlineExceeded(w)
		}
		return false
	}
	return true
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
