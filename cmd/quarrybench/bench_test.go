package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeOLAP is an httptest stand-in for quarryd's serving layer with
// deterministic fault injection: every failEvery-th /api/olap request
// returns 500, and oracleDiverge makes oracle-flagged answers differ
// from fast-path ones so mismatch detection can be exercised.
type fakeOLAP struct {
	olapRequests atomic.Int64
	olapFailures atomic.Int64
	olapSheds    atomic.Int64
	reloads      atomic.Int64
	failEvery    int64
	// shedEvery makes every shedEvery-th surviving request answer 429 +
	// Retry-After, imitating quarryd's admission control under overload.
	shedEvery     int64
	oracleDiverge bool
	// versionEachRequest stamps a fresh X-Quarry-Version on every
	// /api/olap response and makes the answer version-dependent,
	// simulating a warehouse republished between any two fetches by
	// someone other than this bench client (a shard fleet, another
	// loader). staticVersion stamps a constant header instead.
	versionEachRequest bool
	staticVersion      string
}

func (f *fakeOLAP) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/olap", func(w http.ResponseWriter, r *http.Request) {
		n := f.olapRequests.Add(1)
		if f.failEvery > 0 && n%f.failEvery == 0 {
			f.olapFailures.Add(1)
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
		if f.shedEvery > 0 && n%f.shedEvery == 0 {
			f.olapSheds.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"shed":true,"class":"fast"}`, http.StatusTooManyRequests)
			return
		}
		var body map[string]any
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			f.olapFailures.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		oracle, _ := body["oracle"].(bool)
		delete(body, "oracle")
		// Answer derived only from the query (map marshal sorts keys),
		// so fast and oracle fetches are byte-identical — unless
		// divergence is being injected.
		if f.oracleDiverge && oracle {
			body["divergence"] = true
		}
		if f.versionEachRequest {
			w.Header().Set("X-Quarry-Version", fmt.Sprint(n))
			body["version"] = n
		} else if f.staticVersion != "" {
			w.Header().Set("X-Quarry-Version", f.staticVersion)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("POST /api/run", func(w http.ResponseWriter, _ *http.Request) {
		f.reloads.Add(1)
		fmt.Fprint(w, "{}")
	})
	mux.HandleFunc("GET /api/olap/stats", func(w http.ResponseWriter, _ *http.Request) {
		// Counters shaped like quarryd's /api/olap/stats; matagg hits
		// track request count so the delta is observable.
		n, errs, sheds := f.olapRequests.Load(), f.olapFailures.Load(), f.olapSheds.Load()
		fmt.Fprintf(w, `{"queries":%d,"answered":%d,"shed":%d,"query_errors":%d,"deadline_exceeded":0,`+
			`"cache_hits":%d,"cache_misses":%d,`+
			`"matagg":{"hits":%d,"rewrites":0,"misses":0,"materialized":2,"materialized_rows":40}}`,
			n, n-errs-sheds, sheds, errs, n/2, n-n/2, n)
	})
	return mux
}

// TestBenchSmoke drives the harness against the fake server with
// fault injection, reload churn, and oracle checks all on, and holds
// it to exact accounting: every request the server saw is in the
// report, every injected 500 is an error, percentiles are monotone,
// and the stats delta reconciles with the server's own counters.
func TestBenchSmoke(t *testing.T) {
	fake := &fakeOLAP{failEvery: 7}
	srv := httptest.NewServer(fake.handler())
	defer srv.Close()

	rep, err := runBench(benchConfig{
		Target:         srv.URL,
		QPS:            300,
		Duration:       time.Second,
		ZipfS:          1.3,
		Seed:           42,
		OracleEvery:    5,
		ReloadInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Scheduled < 290 {
		t.Fatalf("open-loop schedule issued %d requests, want ~300", rep.Scheduled)
	}
	// Exact accounting: the client's request and error counts must
	// equal what the server actually saw and injected.
	if got := fake.olapRequests.Load(); rep.Requests != got {
		t.Fatalf("report counts %d requests, server saw %d", rep.Requests, got)
	}
	if got := fake.olapFailures.Load(); rep.Errors != got {
		t.Fatalf("report counts %d errors, server injected %d", rep.Errors, got)
	}
	if rep.Errors == 0 {
		t.Fatal("fault injection produced no errors; the error path is untested")
	}
	if want := float64(rep.Errors) / float64(rep.Requests); rep.ErrorRate != want {
		t.Fatalf("ErrorRate = %v, want %v", rep.ErrorRate, want)
	}

	// Percentiles must be monotone and within the recorded range.
	l := rep.Latency
	if !(l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) {
		t.Fatalf("percentiles not monotone: %+v", l)
	}
	if l.P50 <= 0 || l.Mean <= 0 {
		t.Fatalf("degenerate latencies: %+v", l)
	}

	// Oracle checks ran and found no divergence (the fake server is
	// honest); reload churn happened and is accounted.
	if rep.OracleChecks == 0 {
		t.Fatal("no oracle spot checks ran")
	}
	if rep.OracleMismatches != 0 {
		t.Fatalf("%d oracle mismatches against an honest server", rep.OracleMismatches)
	}
	if rep.Reloads == 0 || rep.Reloads != fake.reloads.Load() {
		t.Fatalf("reloads: report %d, server %d", rep.Reloads, fake.reloads.Load())
	}
	if rep.ReloadErrors != 0 {
		t.Fatalf("unexpected reload errors: %d", rep.ReloadErrors)
	}

	// The mix covers every query, sums to the scheduled count, and is
	// Zipf-skewed toward the head.
	var mixSum int64
	for _, m := range rep.Mix {
		mixSum += m.Requests
	}
	if mixSum != rep.Scheduled {
		t.Fatalf("mix sums to %d, scheduled %d", mixSum, rep.Scheduled)
	}
	if rep.Mix[0].Requests <= rep.Mix[len(rep.Mix)-1].Requests {
		t.Fatalf("mix not skewed toward rank 0: %+v", rep.Mix)
	}

	// Stats delta reconciles with the server's counters.
	if rep.Stats == nil {
		t.Fatalf("stats not scraped: %s", rep.StatsError)
	}
	if rep.Stats.Queries != rep.Requests {
		t.Fatalf("stats delta counts %d queries, report %d", rep.Stats.Queries, rep.Requests)
	}
	if rep.Stats.QueryErrors != rep.Errors {
		t.Fatalf("stats delta counts %d errors, report %d", rep.Stats.QueryErrors, rep.Errors)
	}
	if rep.Stats.MatAggHits != rep.Requests || rep.Stats.MatAggHitRatio != 1 || rep.Stats.MatAggRows != 40 {
		t.Fatalf("matagg delta wrong: %+v", rep.Stats)
	}
	if rep.Stats.CacheHitRatio <= 0 || rep.Stats.CacheHitRatio > 1 {
		t.Fatalf("cache hit ratio out of range: %+v", rep.Stats)
	}
}

// TestBenchOracleMismatchDetected: a server whose oracle path answers
// differently must be caught — this is the tripwire the load harness
// adds over plain latency measurement.
func TestBenchOracleMismatchDetected(t *testing.T) {
	fake := &fakeOLAP{oracleDiverge: true}
	srv := httptest.NewServer(fake.handler())
	defer srv.Close()

	rep, err := runBench(benchConfig{
		Target:      srv.URL,
		QPS:         200,
		Duration:    300 * time.Millisecond,
		ZipfS:       1.3,
		Seed:        1,
		OracleEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OracleMismatches == 0 {
		t.Fatal("diverging oracle answers were not detected")
	}
	if rep.OracleMismatches > rep.OracleChecks {
		t.Fatalf("mismatches %d exceed checks %d", rep.OracleMismatches, rep.OracleChecks)
	}
}

// TestBenchOracleSkipOnVersionSkew: when the target is a shard fleet
// behind a gather router (or any server reloaded by another client),
// the bench's own reload counter never moves, yet warehouse epochs
// do. The skip must key on the X-Quarry-Version response header: a
// pair that straddles an epoch change is skipped, never reported as
// a fast-path divergence. Here EVERY response carries a new epoch
// and a version-dependent body — the old counter-based logic would
// flag each pair as a mismatch.
func TestBenchOracleSkipOnVersionSkew(t *testing.T) {
	fake := &fakeOLAP{versionEachRequest: true}
	srv := httptest.NewServer(fake.handler())
	defer srv.Close()

	rep, err := runBench(benchConfig{
		Target:      srv.URL,
		QPS:         200,
		Duration:    300 * time.Millisecond,
		ZipfS:       1.3,
		Seed:        7,
		OracleEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OracleMismatches != 0 {
		t.Fatalf("%d cross-epoch pairs reported as mismatches; version skew must skip, not fail", rep.OracleMismatches)
	}
	if rep.OracleChecks != 0 {
		t.Fatalf("%d cross-epoch pairs were compared; every pair straddled an epoch change", rep.OracleChecks)
	}
	if rep.OracleSkipped == 0 {
		t.Fatal("no pairs skipped despite every pair straddling an epoch change")
	}
}

// TestBenchOracleChecksWhenVersionStable: a constant X-Quarry-Version
// must not suppress checking — skipping is only for actual skew.
func TestBenchOracleChecksWhenVersionStable(t *testing.T) {
	fake := &fakeOLAP{staticVersion: "7"}
	srv := httptest.NewServer(fake.handler())
	defer srv.Close()

	rep, err := runBench(benchConfig{
		Target:      srv.URL,
		QPS:         200,
		Duration:    300 * time.Millisecond,
		ZipfS:       1.3,
		Seed:        7,
		OracleEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OracleChecks == 0 {
		t.Fatal("no oracle checks ran against an epoch-stable server")
	}
	if rep.OracleSkipped != 0 {
		t.Fatalf("%d pairs skipped with a constant epoch", rep.OracleSkipped)
	}
	if rep.OracleMismatches != 0 {
		t.Fatalf("%d mismatches against an honest server", rep.OracleMismatches)
	}
}

// TestBenchDeterministicSequence: same seed, same query sequence —
// the property that makes a load run reproducible across hosts.
func TestBenchDeterministicSequence(t *testing.T) {
	a := newPicker(42, 1.3, 8)
	b := newPicker(42, 1.3, 8)
	for i := 0; i < 1000; i++ {
		if x, y := a(), b(); x != y {
			t.Fatalf("sequence diverged at %d: %d vs %d", i, x, y)
		}
	}
}

func TestBenchRejectsBadConfig(t *testing.T) {
	if _, err := runBench(benchConfig{QPS: 0, ZipfS: 1.3, Duration: time.Second}); err == nil {
		t.Fatal("qps 0 accepted")
	}
	if _, err := runBench(benchConfig{QPS: 10, ZipfS: 1.0, Duration: time.Second}); err == nil {
		t.Fatal("zipf 1.0 accepted")
	}
}

// TestBenchShedAccounting: 429s are sheds, not errors — they carry
// their own counter and rate, goodput counts only 2xx answers, and
// the client's books reconcile exactly with the server's delta under
// the identity queries = answered + shed + query_errors.
func TestBenchShedAccounting(t *testing.T) {
	fake := &fakeOLAP{failEvery: 9, shedEvery: 4}
	srv := httptest.NewServer(fake.handler())
	defer srv.Close()

	rep, err := runBench(benchConfig{
		Target:      srv.URL,
		QPS:         300,
		Duration:    time.Second,
		ZipfS:       1.3,
		Seed:        42,
		OracleEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Shed == 0 {
		t.Fatal("fake server shed nothing; the shed path is untested")
	}
	if got := fake.olapSheds.Load(); rep.Shed != got {
		t.Fatalf("report counts %d sheds, server issued %d", rep.Shed, got)
	}
	if got := fake.olapFailures.Load(); rep.Errors != got {
		t.Fatalf("sheds leaked into errors: report %d errors, server injected %d", rep.Errors, got)
	}
	if rep.Answered != rep.Requests-rep.Shed-rep.Errors {
		t.Fatalf("client books broken: answered=%d != requests=%d - shed=%d - errors=%d",
			rep.Answered, rep.Requests, rep.Shed, rep.Errors)
	}
	if want := float64(rep.Shed) / float64(rep.Requests); rep.ShedRate != want {
		t.Fatalf("ShedRate = %v, want %v", rep.ShedRate, want)
	}
	if rep.GoodputRPS <= 0 || rep.GoodputRPS >= rep.ThroughputRPS {
		t.Fatalf("goodput %.1f not strictly inside (0, throughput %.1f)", rep.GoodputRPS, rep.ThroughputRPS)
	}

	// Server-side delta reconciles exactly.
	if rep.Stats == nil {
		t.Fatalf("stats not scraped: %s", rep.StatsError)
	}
	s := rep.Stats
	if s.Queries != s.Answered+s.Shed+s.QueryErrors {
		t.Fatalf("server identity broken: queries=%d != answered=%d + shed=%d + query_errors=%d",
			s.Queries, s.Answered, s.Shed, s.QueryErrors)
	}
	if s.Shed != rep.Shed || s.Answered != rep.Answered || s.QueryErrors != rep.Errors {
		t.Fatalf("client/server disagreement: client (a=%d s=%d e=%d) vs server delta (a=%d s=%d e=%d)",
			rep.Answered, rep.Shed, rep.Errors, s.Answered, s.Shed, s.QueryErrors)
	}

	// No oracle mismatches: a shed first fetch never triggers the
	// oracle re-fetch, and a shed re-fetch skips the comparison.
	if rep.OracleMismatches != 0 {
		t.Fatalf("%d oracle mismatches; sheds must not be compared as answers", rep.OracleMismatches)
	}
}
