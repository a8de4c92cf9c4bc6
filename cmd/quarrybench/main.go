// Command quarrybench is Quarry's open-loop load harness: it drives a
// live quarryd (or quarryrouter) endpoint with a Zipf-skewed mix of
// the golden TPC-H cube queries at a fixed request schedule,
// optionally republishing the warehouse underneath the load, and
// reports latency percentiles from an HDR-style histogram plus the
// server's cache and materialized-aggregate hit ratios.
//
// Open-loop means the schedule never waits for responses: a request
// fires every 1/qps seconds regardless of how many are outstanding,
// and each latency is measured from its SCHEDULED send time. Closed
// loops (fire, wait, fire) let a slow server throttle its own load
// and hide queueing delay — the coordinated-omission trap; this
// harness reports the delay a constant-rate caller population would
// actually see.
//
// Usage:
//
//	quarrybench -target http://localhost:8080 [-qps 100] [-duration 30s]
//	    [-seed 42] [-oracle-every 50] [-reload-interval 0] [-out FILE]
//	    [-max-error-rate -1] [-min-matagg-hits -1]
//	    [-min-shed -1] [-max-p99 0] [-expect-reconcile]
//
// The mix is Zipf-skewed with s = 1.3 over fact_table_revenue, and
// every request times out after 10 s.
//
// A 429 is a shed — the server's admission control refusing work to
// protect its SLO — and is accounted separately from errors: the
// report carries answered/shed/errors (every completed request is
// exactly one of the three), a shed rate, and goodput (answered 2xx
// per second) beside raw throughput. Latency percentiles cover
// ADMITTED requests only; sheds answer in microseconds and would
// otherwise make an overloaded server look fast.
//
// The run fails (exit 1) when any oracle spot check mismatches, when
// -max-error-rate ≥ 0 and the observed error rate exceeds it, when
// -min-matagg-hits ≥ 0 and the server's materialized-aggregate store
// served fewer hits+rewrites than that over the run, when -min-shed ≥ 0
// and fewer requests were shed (overload smoke tests use this to
// prove the server actually shed), when -max-p99 > 0 and the admitted
// p99 exceeds it, or when -expect-reconcile is set and the server's
// counter deltas fail the accounting identity
// queries = answered + shed + query_errors or disagree with the
// client-observed shed count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		target     = flag.String("target", "http://localhost:8080", "base URL of the quarryd/quarryrouter endpoint")
		qps        = flag.Float64("qps", 100, "offered request rate (open-loop schedule)")
		duration   = flag.Duration("duration", 30*time.Second, "length of the request schedule")
		seed       = flag.Int64("seed", 42, "seed for the query-mix sequence (same seed, same sequence)")
		oracleEach = flag.Int("oracle-every", 50, "every Nth request is an oracle spot check (0 disables)")
		reloadInt  = flag.Duration("reload-interval", 0, "POST /api/run at this interval during the run (0 disables)")
		out        = flag.String("out", "", "write the JSON artifact here (e.g. BENCH_load_<sha>.json)")
		maxErrRate = flag.Float64("max-error-rate", -1, "fail if the error rate exceeds this (-1 disables)")
		minMatHits = flag.Int64("min-matagg-hits", -1, "fail if matagg hits+rewrites over the run fall below this (-1 disables)")
		minShed    = flag.Int64("min-shed", -1, "fail if fewer than this many requests were shed (-1 disables; overload smokes use it to prove shedding happened)")
		maxP99     = flag.Duration("max-p99", 0, "fail if the admitted-request p99 latency exceeds this (0 disables)")
		reconcile  = flag.Bool("expect-reconcile", false, "fail unless server counter deltas satisfy queries = answered + shed + query_errors and match the client-observed shed count")
	)
	flag.Parse()

	rep, err := runBench(benchConfig{
		Target:         *target,
		QPS:            *qps,
		Duration:       *duration,
		ZipfS:          1.3,
		Seed:           *seed,
		OracleEvery:    *oracleEach,
		ReloadInterval: *reloadInt,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quarrybench:", err)
		os.Exit(2)
	}
	printReport(rep)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "quarrybench:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "quarrybench:", err)
			os.Exit(2)
		}
		fmt.Printf("artifact: %s\n", *out)
	}

	failed := false
	if rep.OracleMismatches > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d oracle spot check(s) diverged from the reference executor\n", rep.OracleMismatches)
		failed = true
	}
	if *maxErrRate >= 0 && rep.ErrorRate > *maxErrRate {
		fmt.Fprintf(os.Stderr, "FAIL: error rate %.4f exceeds limit %.4f (%d/%d requests)\n",
			rep.ErrorRate, *maxErrRate, rep.Errors, rep.Requests)
		failed = true
	}
	if *minMatHits >= 0 {
		if rep.Stats == nil {
			fmt.Fprintf(os.Stderr, "FAIL: -min-matagg-hits set but server stats unavailable: %s\n", rep.StatsError)
			failed = true
		} else if got := rep.Stats.MatAggHits + rep.Stats.MatAggRewrites; got < *minMatHits {
			fmt.Fprintf(os.Stderr, "FAIL: matagg served %d hit(s) over the run, need ≥ %d\n", got, *minMatHits)
			failed = true
		}
	}
	if *minShed >= 0 && rep.Shed < *minShed {
		fmt.Fprintf(os.Stderr, "FAIL: %d request(s) shed, need ≥ %d (the server never hit its admission limit)\n",
			rep.Shed, *minShed)
		failed = true
	}
	if *maxP99 > 0 {
		if p99 := time.Duration(rep.Latency.P99 * float64(time.Microsecond)); p99 > *maxP99 {
			fmt.Fprintf(os.Stderr, "FAIL: admitted p99 %s exceeds limit %s\n", p99, *maxP99)
			failed = true
		}
	}
	if *reconcile {
		switch {
		case rep.Stats == nil:
			fmt.Fprintf(os.Stderr, "FAIL: -expect-reconcile set but server stats unavailable: %s\n", rep.StatsError)
			failed = true
		case rep.Stats.Queries != rep.Stats.Answered+rep.Stats.Shed+rep.Stats.QueryErrors:
			fmt.Fprintf(os.Stderr, "FAIL: server counters do not reconcile: queries=%d != answered=%d + shed=%d + query_errors=%d\n",
				rep.Stats.Queries, rep.Stats.Answered, rep.Stats.Shed, rep.Stats.QueryErrors)
			failed = true
		case rep.Stats.Shed != rep.Shed:
			fmt.Fprintf(os.Stderr, "FAIL: server shed delta %d disagrees with the %d shed (429) answers this client received\n",
				rep.Stats.Shed, rep.Shed)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func printReport(r *LoadReport) {
	fmt.Printf("target       %s\n", r.Target)
	fmt.Printf("offered      %.0f qps for %.1fs (zipf %.2f, seed %d)\n",
		r.OfferedQPS, r.DurationSeconds, r.ZipfS, r.Seed)
	fmt.Printf("requests     %d completed / %d scheduled, %.1f rps achieved\n",
		r.Requests, r.Scheduled, r.ThroughputRPS)
	fmt.Printf("answered     %d (goodput %.1f rps)\n", r.Answered, r.GoodputRPS)
	fmt.Printf("shed         %d (rate %.4f)\n", r.Shed, r.ShedRate)
	fmt.Printf("errors       %d (rate %.4f)\n", r.Errors, r.ErrorRate)
	fmt.Printf("latency(us)  admitted p50=%.0f p95=%.0f p99=%.0f p99.9=%.0f max=%.0f mean=%.0f\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.P999, r.Latency.Max, r.Latency.Mean)
	fmt.Printf("oracle       %d checked, %d mismatched, %d skipped (reload straddle)\n",
		r.OracleChecks, r.OracleMismatches, r.OracleSkipped)
	if r.Reloads > 0 || r.ReloadErrors > 0 {
		fmt.Printf("reloads      %d (%d failed)\n", r.Reloads, r.ReloadErrors)
	}
	if r.Stats != nil {
		s := r.Stats
		fmt.Printf("server       %d queries = %d answered + %d shed + %d errors (%d deadline), cache %d/%d hit ratio %.2f\n",
			s.Queries, s.Answered, s.Shed, s.QueryErrors, s.DeadlineExceeded, s.CacheHits, s.CacheHits+s.CacheMisses, s.CacheHitRatio)
		fmt.Printf("matagg       hits=%d rewrites=%d misses=%d ratio=%.2f materialized=%d (%d rows)\n",
			s.MatAggHits, s.MatAggRewrites, s.MatAggMisses, s.MatAggHitRatio, s.MatAggMaterialized, s.MatAggRows)
	} else if r.StatsError != "" {
		fmt.Printf("server       stats unavailable: %s\n", r.StatsError)
	}
	fmt.Printf("mix          ")
	for i, m := range r.Mix {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("%s=%d", m.Name, m.Requests)
	}
	fmt.Println()
}
