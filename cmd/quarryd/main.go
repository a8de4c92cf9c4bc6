// Command quarryd serves the Quarry platform over HTTP: the RESTful
// service-oriented deployment of §2.6. By default it hosts a
// generated micro-TPC-H domain (the paper's demo setting).
//
// Usage:
//
//	quarryd [-addr :8080] [-sf 10] [-seed 42] [-store DIR]
//	        [-data-dir DIR] [-compact]
//	        [-parallelism 0] [-batch-size 0]
//	        [-olap-concurrency 0] [-olap-cache 256]
//	        [-slo-target 0] [-shed-policy expensive-first] [-default-deadline 0]
//	        [-matagg] [-matagg-top-k 8]
//	        [-replica-of URL] [-replica-dir DIR] [-replica-interval 1s]
//	        [-shards N] [-shard-index I] [-debug-addr ADDR]
//
// -debug-addr serves net/http/pprof on a listener of its own (off by
// default; the serving port never exposes it), e.g.
// go tool pprof http://ADDR/debug/pprof/profile?seconds=10.
//
// With -slo-target the serving tier defends a latency budget instead
// of melting under overload: per-class service times (cache hit /
// materialized aggregate / fast path / dice / oracle) are tracked as
// EWMAs, each arriving query's queue wait is projected from the
// current backlog, and requests whose projection blows the SLO are
// shed with 429 + Retry-After — most expensive class first under the
// default -shed-policy, with result-cache hits always admitted.
// -default-deadline (or a client's X-Quarry-Deadline header) bounds
// each query end-to-end; expiry frees the executor slot at the next
// batch boundary and answers 504 with partial-progress stats.
//
// With -data-dir the warehouse lives in a paged on-disk store: the
// first start generates and checkpoints the micro-TPC-H sources, a
// restart recovers the last committed version — sources and any
// deployed DW tables — and skips regeneration. -compact folds each
// recovered table into a single freshly encoded segment before
// serving, which also rewrites legacy format-1 directories into the
// compressed format-2 encodings.
//
// With -replica-of the node starts as a read replica of the named
// primary: it ships committed segments from the primary into its own
// -data-dir (required), replays the primary's requirement designs to
// rebuild the unified OLAP view locally, serves /api/olap from its
// own snapshot/materialized-aggregate/result-cache stack, rejects
// every write with 403, and reports replication lag in /api/health.
// -replica-dir switches the DATA transport from the primary's HTTP
// replication endpoints to direct reads of a shared directory (the
// primary's -data-dir over a shared filesystem); requirement designs
// still replay over HTTP from -replica-of. -replica-interval sets
// the poll cadence for tailing the primary's commits.
//
// With -shards N -shard-index I the node is shard I of an N-way
// hash-partitioned warehouse: ETL runs load only this shard's
// partition of each fact table (dimensions load in full), POST
// /api/olap/partial answers pre-finalisation partial aggregates, and
// /api/health reports the shard identity and epoch. Front the fleet
// with quarryrouter -shard-of. Every shard must run with the same
// -sf/-seed and receive the same requirement lifecycle (in the same
// order), so the fleet's warehouse versions advance in lockstep.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"quarry/internal/core"
	"quarry/internal/debugsrv"
	"quarry/internal/engine"
	"quarry/internal/replication"
	"quarry/internal/server"
	"quarry/internal/shard"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// The flag set, shared by both roles (primary/shard and replica).
var (
	addr            = flag.String("addr", ":8080", "listen address")
	sf              = flag.Float64("sf", 10, "micro-TPC-H scale factor")
	seed            = flag.Int64("seed", 42, "data generator seed")
	store           = flag.String("store", "", "metadata repository directory (empty: in-memory)")
	dataDir         = flag.String("data-dir", "", "disk-backed warehouse directory (empty: in-memory); reopening recovers the committed tables and skips generation")
	compact         = flag.Bool("compact", false, "compact the recovered warehouse before serving (merges delta segments; rewrites legacy format-1 segments into compressed format 2)")
	parallelism     = flag.Int("parallelism", 0, "ETL engine worker pool size (0: GOMAXPROCS)")
	batchSize       = flag.Int("batch-size", 0, "ETL engine rows per batch (0: engine default)")
	olapConc        = flag.Int("olap-concurrency", 0, "max concurrent OLAP queries (0: 2×GOMAXPROCS)")
	olapCache       = flag.Int("olap-cache", 256, "OLAP result cache capacity (negative disables)")
	sloTarget       = flag.Duration("slo-target", 0, "latency SLO the admission controller defends: requests whose projected queue wait blows it are shed with 429 + Retry-After (0 disables shedding)")
	shedPolicy      = flag.String("shed-policy", server.PolicyExpensiveFirst, "how to refuse work past the SLO: expensive-first (costly classes shed at lower backlog), fair (class-blind), off")
	defaultDeadline = flag.Duration("default-deadline", 0, "per-query deadline when the client sends no X-Quarry-Deadline header; expiry answers 504 (0: no server-side deadline)")
	matagg          = flag.Bool("matagg", true, "materialize hot OLAP aggregates (adaptive, version-keyed)")
	mataggTopK      = flag.Int("matagg-top-k", 8, "materialized aggregates kept per refresh")
	replicaOf       = flag.String("replica-of", "", "primary base URL (e.g. http://primary:8080); start as a read replica of it")
	replicaDir      = flag.String("replica-dir", "", "with -replica-of: ship segments by reading this shared directory (the primary's -data-dir) instead of the primary's HTTP replication endpoints")
	replicaInterval = flag.Duration("replica-interval", time.Second, "with -replica-of: how often to poll the primary for new commits")
	shards          = flag.Int("shards", 0, "total shard count of a hash-partitioned warehouse (0: not sharded)")
	shardIndex      = flag.Int("shard-index", 0, "this node's shard index in [0,shards)")
	debugAddr       = flag.String("debug-addr", "", "serve net/http/pprof on this separate address, e.g. localhost:6060 (empty: off)")
)

func main() {
	flag.Parse()
	debugsrv.Start("quarryd", *debugAddr)

	if err := server.ValidateShedPolicy(*shedPolicy); err != nil {
		log.Fatalf("quarryd: -shed-policy: %v", err)
	}

	shardSpec := shard.Spec{Index: *shardIndex, Count: *shards}
	if shardSpec.Enabled() {
		if err := shardSpec.Validate(); err != nil {
			log.Fatalf("quarryd: %v", err)
		}
		if *replicaOf != "" {
			log.Fatalf("quarryd: -shards and -replica-of are mutually exclusive (a shard owns a partition; a replica mirrors all of one node)")
		}
	}

	if *replicaOf != "" {
		runReplica()
		return
	}

	var db *storage.DB
	if *dataDir != "" {
		var err error
		if db, err = storage.Open(*dataDir); err != nil {
			log.Fatalf("quarryd: %v", err)
		}
	} else {
		db = storage.NewDB()
	}
	// A directory counts as recovered only when it holds committed
	// DATA, not just schema: a crash during a previous start's
	// generate/checkpoint window commits the (empty) tables before
	// their rows, and trusting table names alone would then serve an
	// empty warehouse forever. tpch.Generate replaces tables, so
	// regenerating over a schema-only directory is safe.
	if li, ok := db.Table("lineitem"); ok && li.NumRows() > 0 {
		log.Printf("quarryd: recovered %d tables at version %d from %s; skipping generation (-sf/-seed ignored: the warehouse keeps the scale it was generated at)",
			len(db.TableNames()), db.Version(), *dataDir)
		if *compact {
			if err := db.Compact(); err != nil {
				log.Fatalf("quarryd: compacting %s: %v", *dataDir, err)
			}
		}
	} else {
		if _, err := tpch.Generate(db, *sf, *seed); err != nil {
			log.Fatalf("quarryd: %v", err)
		}
		// Commit the generated sources so a restart recovers them
		// (no-op for the in-memory backend).
		if err := db.Checkpoint(); err != nil {
			log.Fatalf("quarryd: checkpointing %s: %v", *dataDir, err)
		}
	}
	srv := server.NewWithOptions(newPlatform(db, shardSpec), serverOptions())
	if *sloTarget > 0 {
		log.Printf("quarryd: admission control on: SLO %s, policy %s", *sloTarget, *shedPolicy)
	}
	if shardSpec.Enabled() {
		log.Printf("quarryd: serving as shard %s of a hash-partitioned warehouse", shardSpec)
	}
	var lineitems int64
	if li, ok := db.Table("lineitem"); ok {
		lineitems = li.NumRows()
	}
	if stats := db.DiskStats(); stats != nil {
		segs, bytes := 0, int64(0)
		for _, st := range stats {
			segs += st.Segments
			bytes += st.Bytes
		}
		log.Printf("quarryd: disk footprint: %d tables, %d segments, %d bytes", len(stats), segs, bytes)
	}
	log.Printf("quarryd: micro-TPC-H ready (%d lineitems); listening on %s", lineitems, *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		log.Fatalf("quarryd: %v", err)
	}
}

// newPlatform builds the platform of either role over its warehouse:
// the micro-TPC-H domain (ontology, mapping, catalog at -sf) and the
// engine and materialized-aggregate sizing from the flags.
func newPlatform(db *storage.DB, shardSpec shard.Spec) *core.Platform {
	onto, err := tpch.Ontology()
	if err != nil {
		log.Fatalf("quarryd: %v", err)
	}
	mapg, err := tpch.Mapping()
	if err != nil {
		log.Fatalf("quarryd: %v", err)
	}
	cat, err := tpch.Catalog(*sf)
	if err != nil {
		log.Fatalf("quarryd: %v", err)
	}
	topK := 0
	if *matagg {
		topK = *mataggTopK
	}
	p, err := core.New(core.Config{
		Ontology: onto, Mapping: mapg, Catalog: cat, DB: db, StoreDir: *store,
		Engine:     engine.Options{Parallelism: *parallelism, BatchSize: *batchSize},
		MatAggTopK: topK,
		Shard:      shardSpec,
	})
	if err != nil {
		log.Fatalf("quarryd: %v", err)
	}
	return p
}

// serverOptions is the serving posture both roles share (OLAP
// concurrency/cache, admission control, deadline); a replica adds its
// read-only half on top.
func serverOptions() server.Options {
	return server.Options{
		OLAPConcurrency: *olapConc,
		OLAPCacheSize:   *olapCache,
		SLOTarget:       *sloTarget,
		ShedPolicy:      *shedPolicy,
		DefaultDeadline: *defaultDeadline,
	}
}

// runReplica starts quarryd as a read replica: ship the primary's
// committed segments into -data-dir, replay its requirement designs to
// rebuild the unified OLAP view, and serve reads from the local
// snapshot stack. The node never generates data, never deploys, and
// never runs ETL — every byte of warehouse state arrives through the
// manifest-shipping protocol, and every write endpoint answers 403.
func runReplica() {
	primary, interval := *replicaOf, *replicaInterval
	if *dataDir == "" {
		log.Fatalf("quarryd: -replica-of requires -data-dir (replicas keep a local disk copy of the shipped segments)")
	}
	db, err := storage.Open(*dataDir)
	if err != nil {
		log.Fatalf("quarryd: %v", err)
	}
	var src replication.Source
	if *replicaDir != "" {
		src = &replication.DirSource{Dir: *replicaDir}
	} else {
		src = &replication.HTTPSource{Base: primary}
	}
	syncer, err := replication.NewSyncer(db, src, primary)
	if err != nil {
		log.Fatalf("quarryd: %v", err)
	}
	ctx := context.Background()
	// Converge on the primary's current state before serving: first the
	// data (segments + manifest), then the designs. Both retry until the
	// primary is reachable — a replica is typically started while the
	// primary is still warming up.
	untilDone := func(what string, step func() error) {
		for err := step(); err != nil; err = step() {
			log.Printf("quarryd: %s from %s: %v (retrying)", what, primary, err)
			time.Sleep(interval)
		}
	}
	untilDone("initial sync", func() error { _, err := syncer.Sync(ctx); return err })
	p := newPlatform(db, shard.Spec{})
	untilDone("replaying designs", func() error { return reconcileDesigns(ctx, p, primary) })
	opts := serverOptions()
	opts.ReadOnly = true
	opts.ReplicaStatus = syncer.Status
	srv := server.NewWithOptions(p, opts)
	srv.WarehouseChanged()
	go syncer.Tail(ctx, interval, func(rep replication.Report) {
		log.Printf("quarryd: synced to version %d (%d segments, %d bytes)",
			rep.ToVersion, rep.Segments, rep.Bytes)
		// Designs can change alongside data (a republish follows a
		// requirement change), so re-reconcile before invalidating the
		// serving caches at the new version.
		if err := reconcileDesigns(ctx, p, primary); err != nil {
			log.Printf("quarryd: replaying designs from %s: %v", primary, err)
		}
		srv.WarehouseChanged()
	})
	st := syncer.Status()
	log.Printf("quarryd: replica of %s ready at version %d (converged=%v); listening on %s",
		primary, st.LocalVersion, st.Converged, *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		log.Fatalf("quarryd: %v", err)
	}
}

// reconcileDesigns makes the local requirement set equal to the
// primary's: fetch the primary's requirements (canonical xRQ, in
// registration order), add the missing, change the differing, and
// remove the ones the primary no longer has. Both sides' XML comes
// from xrq.Marshal, so string equality is design equality.
func reconcileDesigns(ctx context.Context, p *core.Platform, primary string) error {
	remote, err := replication.FetchRequirements(ctx, primary, nil)
	if err != nil {
		return err
	}
	localXML := make(map[string]string)
	for _, r := range p.Requirements() {
		s, err := xrq.Marshal(r)
		if err != nil {
			return err
		}
		localXML[r.ID] = s
	}
	remoteIDs := make(map[string]bool, len(remote))
	for _, rr := range remote {
		remoteIDs[rr.ID] = true
		cur, have := localXML[rr.ID]
		if have && cur == rr.XML {
			continue
		}
		req, err := xrq.Unmarshal(rr.XML)
		if err != nil {
			return fmt.Errorf("requirement %s: %w", rr.ID, err)
		}
		if !have {
			if _, err := p.AddRequirement(req); err != nil {
				return err
			}
		} else if _, err := p.ChangeRequirement(req); err != nil {
			return err
		}
	}
	for id := range localXML {
		if !remoteIDs[id] {
			if _, err := p.RemoveRequirement(id); err != nil {
				return err
			}
		}
	}
	return nil
}
