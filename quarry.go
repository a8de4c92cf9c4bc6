// Package quarry is the public API of the Quarry reproduction: an
// end-to-end system for managing the data-warehouse (DW) design
// lifecycle, after "Quarry: Digging Up the Gems of Your Data
// Treasury" (Jovanovic et al., EDBT 2015).
//
// Quarry starts from high-level information requirements — analytical
// queries over a domain ontology, in the xRQ format — and automates
// the rest of the lifecycle:
//
//   - the Requirements Elicitor suggests analytical perspectives from
//     the ontology graph and assembles requirements interactively;
//   - the Requirements Interpreter translates each requirement into a
//     validated partial MD schema (xMD) and ETL process (xLM);
//   - the Design Integrator incrementally consolidates partial
//     designs into unified solutions, guided by quality factors
//     (structural complexity of MD schemata, estimated execution time
//     of ETL flows), re-validating soundness and satisfiability at
//     every step;
//   - the Design Deployer emits platform-specific artifacts
//     (PostgreSQL DDL, Pentaho PDI transformations) and executes the
//     unified flow natively to populate the warehouse.
//
// Native execution uses a batch-vectorised, pipelined, DAG-parallel
// engine: operators stream fixed-size row batches and independent
// branches of the unified flow run concurrently on a bounded worker
// pool of GOMAXPROCS workers.
//
// The execution database is one paged columnar store: committed rows
// live in segments of compressed, zone-mapped pages. NewTPCHPlatform keeps
// the segments in memory; OpenDB keeps them in files named by a manifest, so tables survive process restarts —
// every ETL run committed by a single atomic manifest rename, recovery
// discarding whatever a crashed run left behind. See
// docs/ARCHITECTURE.md for the storage-format spec.
//
// Quickstart:
//
//	p, db, err := quarry.NewTPCHPlatform(10, 42)  // micro-TPC-H, SF 10
//	if err != nil { ... }
//	_, err = p.AddRequirement(quarry.RevenueRequirement())
//	dep, err := p.Deploy("demo")                  // DDL + .ktr artifacts
//	res, err := p.Run()                           // populate the DW in db
//	_ = db; _ = dep; _ = res
//
// For custom domains, construct an ontology, a source catalog and a
// mapping (packages re-exported below) and pass them via Config.
package quarry

import (
	"quarry/internal/core"
	"quarry/internal/elicitor"
	"quarry/internal/engine"
	"quarry/internal/mapping"
	"quarry/internal/olap"
	"quarry/internal/ontology"
	"quarry/internal/sources"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// Platform is the running Quarry instance; see internal/core for the
// full method set (AddRequirement, ChangeRequirement,
// RemoveRequirement, Unified, Deploy, Run, ...).
type Platform = core.Platform

// Config assembles a Platform.
type Config = core.Config

// ChangeReport describes one lifecycle change.
type ChangeReport = core.ChangeReport

// Deployment bundles the Design Deployer artifacts.
type Deployment = core.Deployment

// Requirement is an information requirement (xRQ).
type Requirement = xrq.Requirement

// MDSchema is a multidimensional schema (xMD).
type MDSchema = xmd.Schema

// ETLDesign is an ETL process design (xLM).
type ETLDesign = xlm.Design

// Ontology is a domain ontology.
type Ontology = ontology.Ontology

// Mapping is a source schema mapping.
type Mapping = mapping.Mapping

// Catalog is a data-source catalog.
type Catalog = sources.Catalog

// DB is the embedded execution database.
type DB = storage.DB

// OpenDB opens (or initialises) a paged, disk-backed execution
// database rooted at dir. Tables survive process restarts; every ETL
// run commits atomically (one manifest fsync+rename) and reopening
// recovers the last committed version, discarding segments a crashed
// run left behind. Pass the result via Config.DB.
func OpenDB(dir string) (*DB, error) { return storage.Open(dir) }

// Elicitor is the Requirements Elicitor backend.
type Elicitor = elicitor.Elicitor

// RunResult is the outcome of executing an ETL design.
type RunResult = engine.Result

// OLAPEngine answers analytical cube queries over the deployed DW
// (obtain one with Platform.OLAP after Run). Query is the vectorized
// fast path — star joins and hash aggregation planned directly over
// snapshot-isolated storage cursors, nothing written to the warehouse
// — and QueryStarFlow the engine-executed correctness oracle.
type OLAPEngine = olap.Engine

// CubeQuery is an analytical query over a deployed fact table:
// group-by descriptors (optionally at coarser roll-up levels of the
// xMD hierarchies), aggregated measures, slicer predicate and an
// optional diamond dice.
type CubeQuery = olap.CubeQuery

// OLAPMeasure is one aggregated measure of a CubeQuery.
type OLAPMeasure = olap.MeasureSpec

// DiceSpec configures a CubeQuery's diamond dice: per-dimension
// minimum carats, pruned to a fixpoint.
type DiceSpec = olap.DiceSpec

// OLAPResult is an ordered, in-memory OLAP result set.
type OLAPResult = olap.Result

// MatAgg is the adaptive materialized-aggregate store: it observes the
// query log, materializes the top-K hot (group-by set, measure set)
// granularities into version-keyed snapshot-backed tables, and lets
// the fast path rewrite covered queries onto the coarsest usable
// aggregate — byte-identical to the oracle by construction. Enable it
// per platform with Config.MatAggTopK (Platform.MatAgg exposes the
// store; call Refresh after warehouse reloads).
type MatAgg = olap.MatAgg

// MatAggStats is the store's admin/stats view.
type MatAggStats = olap.MatAggStats

// New builds a Platform for a custom domain.
func New(cfg Config) (*Platform, error) { return core.New(cfg) }

// NewTPCHPlatform builds a ready-to-use platform over a generated
// micro-TPC-H instance (scale factor sf, deterministic seed): the
// setting of the paper's demonstration. It returns the platform and
// the database holding the generated sources (and, after Run, the
// deployed DW tables).
func NewTPCHPlatform(sf float64, seed int64) (*Platform, *DB, error) {
	onto, err := tpch.Ontology()
	if err != nil {
		return nil, nil, err
	}
	mapg, err := tpch.Mapping()
	if err != nil {
		return nil, nil, err
	}
	cat, err := tpch.Catalog(sf)
	if err != nil {
		return nil, nil, err
	}
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, sf, seed); err != nil {
		return nil, nil, err
	}
	p, err := core.New(Config{Ontology: onto, Mapping: mapg, Catalog: cat, DB: db})
	if err != nil {
		return nil, nil, err
	}
	return p, db, nil
}

// RevenueRequirement is the paper's Figure 4 requirement: average
// revenue per part and supplier, for parts ordered from Spain.
func RevenueRequirement() *Requirement { return tpch.RevenueRequirement() }

// NetProfitRequirement is the second Figure 3 requirement
// (fact_table_netprofit).
func NetProfitRequirement() *Requirement { return tpch.NetProfitRequirement() }

// CanonicalRequirements returns the demo requirement set.
func CanonicalRequirements() []*Requirement { return tpch.CanonicalRequirements() }

// GenerateRequirements synthesises n distinct valid TPC-H
// requirements (for scalability experiments).
func GenerateRequirements(n int) []*Requirement { return tpch.GenerateRequirements(n) }

// MarshalRequirement renders a requirement as xRQ XML.
func MarshalRequirement(r *Requirement) (string, error) { return xrq.Marshal(r) }
