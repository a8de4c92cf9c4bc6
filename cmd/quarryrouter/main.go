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
// retries stop at a per-query budget (two extra passes over the ring,
// one extra scatter) so the router never amplifies the overload it is
// routing around. When every candidate is busy the router answers an
// aggregated 429 with a Retry-After — "back off", never a 502
// "outage". The retry counts are internal/router's constants.
//
// Usage:
//
//	quarryrouter -replicas http://r1:8081,http://r2:8082 [-addr :8090]
//	             [-health-interval 2s]
//	quarryrouter -shard-of http://s0:8080,http://s1:8081 [-addr :8090]
//
// Either mode takes -debug-addr ADDR: net/http/pprof on a listener of
// its own (off by default; never on the serving port). A flag set the
// router cannot serve with is refused at startup with exit status 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"quarry/internal/debugsrv"
	"quarry/internal/router"
)

var (
	addr           = flag.String("addr", ":8090", "listen address")
	replicas       = flag.String("replicas", "", "comma-separated replica base URLs (replica mode)")
	healthInterval = flag.Duration("health-interval", 2*time.Second, "replica health probe cadence")
	shardOf        = flag.String("shard-of", "", "comma-separated shard base URLs in shard-index order (shard-gather mode)")
	debugAddr      = flag.String("debug-addr", "", "serve net/http/pprof on this separate address, e.g. localhost:6061 (empty: off)")
)

func main() {
	flag.Parse()
	if err := checkFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "quarryrouter: %v\n", err)
		os.Exit(2)
	}
	debugsrv.Start("quarryrouter", *debugAddr)

	if *shardOf != "" {
		urls := splitURLs(*shardOf)
		g, err := router.NewShardGather(urls, nil)
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
	rt, err := router.New(urls, nil)
	if err != nil {
		log.Fatalf("quarryrouter: %v", err)
	}
	go rt.HealthLoop(context.Background(), *healthInterval)
	log.Printf("quarryrouter: scattering over %d replicas; listening on %s", len(urls), *addr)
	if err := http.ListenAndServe(*addr, rt.Handler()); err != nil {
		log.Fatalf("quarryrouter: %v", err)
	}
}

// checkFlags refuses a flag set the router cannot serve with, naming
// the flag.
func checkFlags() error {
	switch {
	case *shardOf != "" && *replicas != "":
		return errors.New("-replicas and -shard-of are mutually exclusive")
	case *shardOf == "" && *replicas == "":
		return errors.New("one of -replicas or -shard-of is required")
	case *healthInterval <= 0:
		return fmt.Errorf("-health-interval %s: want a positive probe cadence", *healthInterval)
	}
	return nil
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
