// Command quarryrouter is the scatter front of a distributed Quarry
// deployment, in one of two modes:
//
// Replica mode (-replicas): fan /api/olap (and other reads) across a
// fleet of read replicas with health-checked round-robin, retrying a
// failed request on the next replica. Replicas answer byte-identically,
// so failover never changes an answer.
//
// Shard-gather mode (-shard-of): front a hash-partitioned warehouse.
// Each backend is one shard holding one partition of the fact tables
// (quarryd -shards N -shard-index I); a cube query is scattered to
// EVERY shard's partial-aggregate endpoint and the pre-finalisation
// states are merged into an answer byte-identical to a single node
// holding all rows. The order of -shard-of URLs is the topology:
// the i-th URL must be the shard running with -shard-index i (the
// merge verifies this and refuses miswired fleets). The gather never
// serves partial answers: a dead shard fails the query with 502, and
// epoch-skewed shards (a reload racing the query) cause a bounded
// rescatter, then 503.
//
// Both modes distinguish busy from dead. A backend answering 429 or
// 503 is shedding load, not failing: it stays in rotation (no
// demotion), its Retry-After is honored with jittered backoff, and
// retries stop at a per-query budget (-retry-budget / -busy-retries)
// so the router never amplifies the overload it is routing around.
// When every candidate is busy the router answers an aggregated 429
// with a Retry-After — "back off", never a 502 "outage".
// The retry counts (-retry-budget, -busy-retries, -shard-skew-retries)
// are literal: 0 switches that kind of retry off.
//
// Usage:
//
//	quarryrouter -replicas http://r1:8081,http://r2:8082 [-addr :8090]
//	             [-health-interval 2s] [-retry-budget 2]
//	             [-max-retry-after 2s]
//	quarryrouter -shard-of http://s0:8080,http://s1:8081 [-addr :8090]
//	             [-shard-attempts 2] [-shard-skew-retries 2]
//	             [-shard-timeout 30s] [-busy-retries 1]
//	             [-max-retry-after 2s]
//
// Either mode takes -debug-addr ADDR: net/http/pprof on a listener of
// its own (off by default; never on the serving port).
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"strings"
	"time"

	"quarry/internal/debugsrv"
	"quarry/internal/router"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs (replica mode)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "replica health probe cadence")
	shardOf := flag.String("shard-of", "", "comma-separated shard base URLs in shard-index order (shard-gather mode)")
	shardAttempts := flag.Int("shard-attempts", 2, "attempts per shard per scatter (transport errors and 5xx retry)")
	shardSkewRetries := flag.Int("shard-skew-retries", 2, "whole-scatter retries when shards answer at different epochs")
	shardTimeout := flag.Duration("shard-timeout", 30*time.Second, "per-request timeout towards one shard")
	retryBudget := flag.Int("retry-budget", 2, "replica mode: extra all-busy passes per query before answering 429 (0 disables busy retries)")
	busyRetries := flag.Int("busy-retries", 1, "shard-gather mode: whole-scatter retries while some (not all) shards answer busy")
	maxRetryAfter := flag.Duration("max-retry-after", 2*time.Second, "cap on backend Retry-After suggestions used for backoff")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address, e.g. localhost:6061 (empty: off)")
	flag.Parse()
	debugsrv.Start("quarryrouter", *debugAddr)

	if *shardOf != "" && *replicas != "" {
		log.Fatalf("quarryrouter: -replicas and -shard-of are mutually exclusive")
	}
	// The flags carry the defaults and router.Options' retry counts are
	// literal, so the values go through as they are.
	opts := router.Options{
		BusyRetries:   *retryBudget,
		MaxRetryAfter: *maxRetryAfter,
		Attempts:      *shardAttempts,
		SkewRetries:   *shardSkewRetries,
	}
	if *shardOf != "" {
		urls := splitURLs(*shardOf)
		opts.BusyRetries = *busyRetries
		g, err := router.NewShardGather(urls, &http.Client{Timeout: *shardTimeout}, opts)
		if err != nil {
			log.Fatalf("quarryrouter: %v", err)
		}
		log.Printf("quarryrouter: gathering over %d shards; listening on %s", len(urls), *addr)
		if err := http.ListenAndServe(*addr, g.Handler()); err != nil {
			log.Fatalf("quarryrouter: %v", err)
		}
		return
	}

	urls := splitURLs(*replicas)
	rt, err := router.New(urls, nil, opts)
	if err != nil {
		log.Fatalf("quarryrouter: %v (use -replicas or -shard-of)", err)
	}
	go rt.HealthLoop(context.Background(), *healthInterval)
	log.Printf("quarryrouter: scattering over %d replicas; listening on %s", len(urls), *addr)
	if err := http.ListenAndServe(*addr, rt.Handler()); err != nil {
		log.Fatalf("quarryrouter: %v", err)
	}
}

func splitURLs(csv string) []string {
	var urls []string
	for _, u := range strings.Split(csv, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}
