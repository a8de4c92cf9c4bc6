package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---- admission controller unit tests ----

// TestAdmissionIdleAlwaysAdmits: with no backlog there is nothing to
// wait behind, so even a class whose estimate dwarfs the SLO is
// admitted — a huge oracle EWMA must never starve oracle queries on
// an idle server.
func TestAdmissionIdleAlwaysAdmits(t *testing.T) {
	a := newAdmission(time.Millisecond, 1)
	a.ewmaNs[classOracle] = float64(10 * time.Second)
	tkt, ok, _, _ := a.admit(classOracle)
	if !ok {
		t.Fatal("idle server shed an oracle query — wait projection must require backlog")
	}
	a.done(tkt, classOracle, int64(time.Millisecond))
}

// TestAdmissionExpensiveFirstShedsExpensiveClassFirst: the projection
// includes the arriving class's own cost, so at the same backlog the
// expensive class is refused while the cheap one still fits the SLO.
func TestAdmissionExpensiveFirstShedsExpensiveClassFirst(t *testing.T) {
	a := newAdmission(time.Millisecond, 1)
	a.ewmaNs[classOracle] = float64(2 * time.Millisecond)
	// One inflight fast query: backlog 250µs, projected wait 250µs.
	tkt, ok, _, _ := a.admit(classFast)
	if !ok {
		t.Fatal("first fast query shed on an idle controller")
	}
	if _, ok, retryAfter, _ := a.admit(classOracle); ok {
		t.Fatal("oracle admitted: 250µs wait + 2ms own cost must blow a 1ms SLO")
	} else if retryAfter < time.Second {
		t.Fatalf("Retry-After %v, want >= 1s (HTTP whole-second floor)", retryAfter)
	}
	tkt2, ok, _, _ := a.admit(classFast)
	if !ok {
		t.Fatal("fast query shed: 250µs wait + 250µs own cost fits a 1ms SLO")
	}
	a.done(tkt, classFast, int64(200*time.Microsecond))
	a.done(tkt2, classFast, int64(200*time.Microsecond))
}

// TestAdmissionSettlement: a settled ticket releases its backlog
// charge, decrements occupancy, and feeds the EWMA of the class that
// ACTUALLY answered.
func TestAdmissionSettlement(t *testing.T) {
	a := newAdmission(time.Millisecond, 2)
	tkt, ok, _, _ := a.admit(classFast)
	if !ok {
		t.Fatal("shed on idle")
	}
	// Predicted fast, answered by the materialized-aggregate store.
	a.done(tkt, classMatAgg, int64(40*time.Microsecond))
	st := a.stats()
	if st.ProjectedWaitMs != 0 {
		t.Fatalf("backlog not released: projected wait %vms", st.ProjectedWaitMs)
	}
	if got := st.Classes["matagg"].Served; got != 1 {
		t.Fatalf("matagg served = %d, want 1 (attribution by actual class)", got)
	}
	if got := st.Classes["fast"].Inflight; got != 0 {
		t.Fatalf("fast inflight = %d, want 0", got)
	}
}

// TestAdmissionIdleAfterDrainAdmits: interleaved admits and settles
// with awkward float charges must leave the drained backlog at
// exactly zero — rounding dust left behind would make the controller
// believe a queue exists forever, and a class whose pessimistic
// charge exceeds the SLO would then be locked out even on an idle
// server.
func TestAdmissionIdleAfterDrainAdmits(t *testing.T) {
	a := newAdmission(time.Millisecond, 1)
	a.mu.Lock()
	a.ewmaNs[classFast] = float64(100*time.Microsecond) / 3 // repeating binary fraction
	a.ewmaVar[classFast] = 2e7                              // sqrt is irrational: more dust
	a.mu.Unlock()
	var open []ticket
	for i := 0; i < 500; i++ {
		if tk, ok, _, _ := a.admit(classFast); ok {
			open = append(open, tk)
		}
		// Vary the charge so out-of-order settles sum differently than
		// they were added.
		a.mu.Lock()
		a.ewmaVar[classFast] += 13.7
		a.mu.Unlock()
		if len(open) > 3 {
			a.done(open[0], classFast, -1)
			open = open[1:]
		}
	}
	for _, tk := range open {
		a.done(tk, classFast, -1)
	}
	a.mu.Lock()
	backlog := a.backlogNs
	// The lockout symptom needs a charge above the SLO; give oracle one.
	a.ewmaNs[classOracle] = float64(10 * time.Millisecond)
	a.mu.Unlock()
	if backlog != 0 {
		t.Fatalf("drained backlog = %v ns, want exactly 0", backlog)
	}
	if _, ok, _, _ := a.admit(classOracle); !ok {
		t.Fatal("idle server refused an expensive request: backlog dust lockout")
	}
}

// ---- HTTP-level shed and deadline behaviour ----

const revenueOLAPBodyAlt = `{"fact":"fact_table_revenue","group_by":["n_name","o_orderpriority"],` +
	`"measures":[{"out":"total","func":"SUM","col":"revenue"}]}`

func olapStatsOf(t *testing.T, url string) olapStatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/api/olap/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st olapStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// queryEndpoints are the endpoints that run the serveQuery pipeline;
// the overload contracts below hold on each of them.
var queryEndpoints = []string{"/api/olap", "/api/olap/partial"}

// postQuery posts an OLAP body to one query endpoint, with an optional
// deadline header, and returns the response with its body read.
func postQuery(t *testing.T, url, path, body, deadline string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline != "" {
		req.Header.Set("X-Quarry-Deadline", deadline)
	}
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// parkQuery sends one query to path in the background and returns once
// it sits in the executor holding a slot; release lets it finish.
func parkQuery(t *testing.T, url, path, body string) (release func()) {
	t.Helper()
	entered := make(chan struct{})
	gate := make(chan struct{})
	var fired int32
	testingOLAPBeforeQuery = func() {
		if atomic.CompareAndSwapInt32(&fired, 0, 1) {
			close(entered)
			<-gate
		}
	}
	t.Cleanup(func() { testingOLAPBeforeQuery = nil })
	go func() {
		client := &http.Client{Timeout: 30 * time.Second}
		resp, err := client.Post(url+path, "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	return func() { close(gate) }
}

// TestOLAPShedsUnderBacklogAndAlwaysServesCacheHits: with a
// vanishingly small SLO, any backlog sheds new work with 429 +
// Retry-After — on either query endpoint — but result-cache hits are
// answered before admission and must keep flowing while the server
// sheds. Partial traffic is shed by the same controller, yet leaves
// the /api/olap counters alone.
func TestOLAPShedsUnderBacklogAndAlwaysServesCacheHits(t *testing.T) {
	for _, path := range queryEndpoints {
		t.Run(path, func(t *testing.T) {
			p := deployedTestPlatform(t, 1)
			ts := httptest.NewServer(NewWithOptions(p, Options{
				OLAPConcurrency: 1,
				SLOTarget:       time.Nanosecond, // any projected wait sheds
			}).Handler())
			t.Cleanup(ts.Close)

			// Prime the cache while the server is idle (idle always admits).
			if resp, _ := postOLAP(t, http.DefaultClient, ts.URL, revenueOLAPBody); resp.Header.Get("X-Quarry-Cache") != "miss" {
				t.Fatal("priming request unexpectedly a cache hit")
			}

			// Park one admitted query in the executor so the backlog is nonzero.
			defer parkQuery(t, ts.URL, path, revenueOLAPBodyAlt)()

			// A fresh (uncached) query must now be shed.
			resp, raw := postQuery(t, ts.URL, path,
				`{"fact":"fact_table_revenue","group_by":["c_mktsegment"],"measures":[{"out":"n","func":"COUNT"}]}`, "")
			var shedBody struct {
				Shed       bool   `json:"shed"`
				Class      string `json:"class"`
				RetryAfter int64  `json:"retry_after_ms"`
			}
			if err := json.Unmarshal(raw, &shedBody); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("backlogged query = %d, want 429", resp.StatusCode)
			}
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("429 carries no Retry-After header")
			}
			if !shedBody.Shed || shedBody.Class == "" || shedBody.RetryAfter < 1000 {
				t.Fatalf("shed body incomplete: %+v", shedBody)
			}

			// The cached query still answers while the server sheds.
			resp2, _ := postOLAP(t, http.DefaultClient, ts.URL, revenueOLAPBody)
			if got := resp2.Header.Get("X-Quarry-Cache"); got != "hit" {
				t.Fatalf("cache hit during shedding = %q, want hit: hits are always admitted", got)
			}

			st := olapStatsOf(t, ts.URL)
			if path == "/api/olap" {
				if st.Shed != 1 {
					t.Fatalf("stats shed = %d, want 1", st.Shed)
				}
			} else if st.Shed != 0 || st.QueryErrors != 0 || st.Queries != 2 || st.Answered != 2 {
				// Only the priming miss and the hit went to /api/olap.
				t.Fatalf("partial traffic moved the /api/olap counters: %+v", st)
			}
			if fast := st.Admission.Classes["fast"]; fast.Shed != 1 || fast.Inflight != 1 {
				t.Fatalf("per-class admission stats must see every endpoint's traffic: fast = %+v, want 1 shed, 1 in flight", fast)
			}
			if st.Admission.SLOTargetMs <= 0 {
				t.Fatalf("admission config not exposed: %+v", st.Admission)
			}
		})
	}
}

// TestOLAPDeadlineMidQuery504: a server-side deadline that expires
// while the query is executing cancels it at the next batch boundary;
// the client gets a 504 with partial-progress stats, the pool slot is
// released, and the expired query never publishes to the result cache.
func TestOLAPDeadlineMidQuery504(t *testing.T) {
	for _, path := range queryEndpoints {
		t.Run(path, func(t *testing.T) {
			p := deployedTestPlatform(t, 1)
			ts := httptest.NewServer(NewWithOptions(p, Options{OLAPConcurrency: 1}).Handler())
			t.Cleanup(ts.Close)

			var fired int32
			testingOLAPBeforeQuery = func() {
				if atomic.CompareAndSwapInt32(&fired, 0, 1) {
					time.Sleep(80 * time.Millisecond) // outlive the 25ms budget
				}
			}
			t.Cleanup(func() { testingOLAPBeforeQuery = nil })

			resp, raw := postQuery(t, ts.URL, path, revenueOLAPBody, "25ms")
			var dl deadlineResponse
			if err := json.Unmarshal(raw, &dl); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("expired mid-query = %d, want 504", resp.StatusCode)
			}
			if !dl.DeadlineExceeded || !dl.Executed || dl.BudgetMs != 25 || dl.ElapsedMs < 25 {
				t.Fatalf("partial-progress stats wrong: %+v", dl)
			}

			// Slot released and nothing published: the repeat completes
			// promptly on the single-slot pool, and where there is a result
			// cache it is a MISS.
			resp2, raw2 := postQuery(t, ts.URL, path, revenueOLAPBody, "")
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("repeat after expiry = %d: %s", resp2.StatusCode, raw2)
			}
			if got := resp2.Header.Get("X-Quarry-Cache"); path == "/api/olap" && got != "miss" {
				t.Fatalf("repeat after expiry = %q, want miss: expired queries must not publish", got)
			}

			st := olapStatsOf(t, ts.URL)
			if path != "/api/olap" {
				if st.Queries != 0 || st.DeadlineExceeded != 0 || st.QueryErrors != 0 {
					t.Fatalf("partial traffic moved the /api/olap counters: %+v", st)
				}
				return
			}
			if st.DeadlineExceeded != 1 {
				t.Fatalf("deadline_exceeded = %d, want 1", st.DeadlineExceeded)
			}
			if st.QueryErrors < st.DeadlineExceeded {
				t.Fatalf("deadline expiries must be a subset of query_errors: %d > %d", st.DeadlineExceeded, st.QueryErrors)
			}
		})
	}
}

// TestOLAPDeadlineWhileQueued504: a deadline that expires while the
// query is still waiting for an executor slot abandons the wait — the
// 504 reports the query never executed and the whole budget went to
// queueing.
func TestOLAPDeadlineWhileQueued504(t *testing.T) {
	for _, path := range queryEndpoints {
		t.Run(path, func(t *testing.T) {
			p := deployedTestPlatform(t, 1)
			ts := httptest.NewServer(NewWithOptions(p, Options{OLAPConcurrency: 1}).Handler())
			t.Cleanup(ts.Close)

			defer parkQuery(t, ts.URL, path, revenueOLAPBody)()

			resp, raw := postQuery(t, ts.URL, path, revenueOLAPBodyAlt, "30") // integer = milliseconds
			var dl deadlineResponse
			if err := json.Unmarshal(raw, &dl); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("expired in queue = %d, want 504", resp.StatusCode)
			}
			if !dl.DeadlineExceeded || dl.Executed {
				t.Fatalf("queued expiry must report executed=false: %+v", dl)
			}
			if dl.QueueWaitMs < 25 {
				t.Fatalf("queue wait %vms, want ~the whole 30ms budget", dl.QueueWaitMs)
			}
		})
	}
}

// TestOLAPMalformedDeadlineIs400HitOrMiss: a deadline header quarryd
// cannot read is the client's error on every query endpoint, whatever
// the cache holds — the header is judged before the result cache is
// asked, so the answer to a bad request does not depend on whether
// someone asked the same question before. (It used to: a result-cache
// hit answered 200 without ever looking at the header.)
func TestOLAPMalformedDeadlineIs400HitOrMiss(t *testing.T) {
	p := deployedTestPlatform(t, 1)
	ts := httptest.NewServer(NewWithOptions(p, Options{}).Handler())
	t.Cleanup(ts.Close)
	for _, path := range queryEndpoints {
		for _, state := range []string{"miss", "hit"} {
			for _, bad := range []string{"banana", "0", "-5", "1e3"} {
				resp, raw := postQuery(t, ts.URL, path, revenueOLAPBody, bad)
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "X-Quarry-Deadline") {
					t.Fatalf("%s, result cache %s, deadline %q = %d (%s), want a 400 naming the header",
						path, state, bad, resp.StatusCode, raw)
				}
			}
			// A header quarryd can read is no error; the first pass's
			// answers make the second pass's /api/olap lookups hits.
			for _, good := range []string{"", "250ms", "30000", " 2s "} {
				resp, raw := postQuery(t, ts.URL, path, revenueOLAPBody, good)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s, deadline %q = %d (%s), want 200", path, good, resp.StatusCode, raw)
				}
				if got := resp.Header.Get("X-Quarry-Cache"); path == "/api/olap" && state == "hit" && got != "hit" {
					t.Fatalf("second pass on /api/olap is %q, want a result-cache hit", got)
				}
			}
		}
	}
	// The refusals are /api/olap's query_errors, and only its own.
	st := olapStatsOf(t, ts.URL)
	if st.QueryErrors != 8 || st.Answered != 8 || st.Queries != 16 {
		t.Fatalf("/api/olap counters after 8 refusals and 8 answers of its own: %+v", st)
	}
}

// TestOverloadAccountingIdentity floods a tiny pool with concurrent
// traffic — normal queries, shed-prone queries, malformed bodies, and
// hopeless deadlines — and checks the books afterwards: every request
// landed in exactly one of answered / shed / query_errors, with
// deadline expiries a subset of the errors. Run under -race this also
// shakes the admission controller's locking.
func TestOverloadAccountingIdentity(t *testing.T) {
	p := deployedTestPlatform(t, 1)
	ts := httptest.NewServer(NewWithOptions(p, Options{
		OLAPConcurrency: 2,
		SLOTarget:       500 * time.Microsecond,
	}).Handler())
	t.Cleanup(ts.Close)

	client := &http.Client{Timeout: 30 * time.Second}
	bodies := []string{
		revenueOLAPBody,
		revenueOLAPBodyAlt,
		`{"fact":"fact_table_revenue","group_by":["c_mktsegment"],"measures":[{"out":"n","func":"COUNT"}]}`,
		`{not json`,
	}
	var wg sync.WaitGroup
	for i := 0; i < 80; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/olap", strings.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if i%7 == 0 {
				req.Header.Set("X-Quarry-Deadline", "1ms") // likely hopeless under load
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()

	st := olapStatsOf(t, ts.URL)
	if st.Queries != 80 {
		t.Fatalf("queries = %d, want 80", st.Queries)
	}
	if st.Queries != st.Answered+st.Shed+st.QueryErrors {
		t.Fatalf("identity broken: queries=%d != answered=%d + shed=%d + query_errors=%d",
			st.Queries, st.Answered, st.Shed, st.QueryErrors)
	}
	if st.DeadlineExceeded > st.QueryErrors {
		t.Fatalf("deadline_exceeded=%d exceeds query_errors=%d", st.DeadlineExceeded, st.QueryErrors)
	}
	// The malformed bodies guarantee errors; the drained pool
	// guarantees zero inflight occupancy afterwards.
	if st.QueryErrors < 20 {
		t.Fatalf("query_errors = %d, want >= 20 (the malformed bodies)", st.QueryErrors)
	}
	for name, cs := range st.Admission.Classes {
		if cs.Inflight != 0 {
			t.Fatalf("class %s inflight = %d after drain, want 0", name, cs.Inflight)
		}
	}
}
