// Package core wires Quarry's components into the end-to-end platform
// of the paper's Figure 1: Requirements Elicitor → Requirements
// Interpreter → Design Integrator (MD + ETL) → Design Deployer, over the
// metadata repository that holds the requirements every design is
// derived from.
//
// The Platform owns the DW design lifecycle: requirements are added,
// changed or removed; each change re-derives validated partial
// designs, incrementally integrates them into the unified design
// solutions, re-checks soundness (MD integrity constraints) and
// satisfiability (every registered requirement is still answerable),
// and writes the requirement list to the repository before the change
// is applied. Deployment produces the
// platform-specific artifacts (PostgreSQL DDL, Pentaho PDI .ktr) and
// can execute the unified ETL natively to populate the deployed DW.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"quarry/internal/elicitor"
	"quarry/internal/engine"
	"quarry/internal/etlintegrator"
	"quarry/internal/export"
	"quarry/internal/interpreter"
	"quarry/internal/mapping"
	"quarry/internal/mdintegrator"
	"quarry/internal/olap"
	"quarry/internal/ontology"
	"quarry/internal/pdi"
	"quarry/internal/quality"
	"quarry/internal/repo"
	"quarry/internal/shard"
	"quarry/internal/sources"
	"quarry/internal/sqlgen"
	"quarry/internal/storage"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// Config assembles a Platform.
type Config struct {
	// Ontology, Mapping and Catalog describe the source domain; all
	// three are required.
	Ontology *ontology.Ontology
	Mapping  *mapping.Mapping
	Catalog  *sources.Catalog
	// DB is the execution platform holding source data and receiving
	// the deployed DW tables; optional (required only for Run).
	DB *storage.DB
	// StoreDir persists the requirement list (internal/repo); empty
	// keeps it in memory only.
	StoreDir string
	// MatAggTopK enables the OLAP materialized-aggregate store (plus
	// the per-dimension build-side cache), materializing up to K hot
	// aggregates per refresh; 0 disables the subsystem. See
	// internal/olap/matagg.go.
	MatAggTopK int
	// Shard, when enabled (Count > 0), makes this platform one shard of
	// an N-way hash-partitioned warehouse: ETL runs keep only the fact
	// rows this shard owns (dimensions load in full), and the serving
	// layer answers partial-aggregate queries for the gather router.
	// See internal/shard.
	Shard shard.Spec
}

// Platform is the running Quarry instance.
type Platform struct {
	onto *ontology.Ontology
	mapg *mapping.Mapping
	cat  *sources.Catalog
	db   *storage.DB

	elic      *elicitor.Elicitor
	interp    *interpreter.Interpreter
	mdInt     *mdintegrator.Integrator
	etlInt    *etlintegrator.Integrator
	storeDir  string
	etlCost   quality.ETLCostModel
	shardSpec shard.Spec

	mu sync.Mutex
	// lifecycle holds the registered requirements in registration
	// order, each with its partial design; the unified designs are
	// integrated from it. A change replaces all three at once, and only
	// after the new list is written.
	lifecycle  []registered
	unifiedMD  *xmd.Schema
	unifiedETL *xlm.Design
	// olapEng is the lazily-built OLAP engine over the current unified
	// design; it is immutable (built from clones) and shared by every
	// concurrent query until a design change invalidates it.
	olapEng *olap.Engine
	// matAgg outlives engine rebuilds (entries are DB-version-keyed);
	// design changes invalidate it wholesale. Nil when disabled.
	matAgg *olap.MatAgg
	// dimCounts counts the dimension-cache lookups of every engine the
	// platform builds.
	dimCounts olap.DimCacheCounts
}

// New builds a Platform from the configuration.
func New(cfg Config) (*Platform, error) {
	if cfg.Ontology == nil || cfg.Mapping == nil || cfg.Catalog == nil {
		return nil, fmt.Errorf("core: ontology, mapping and catalog are required")
	}
	if cfg.Shard.Enabled() {
		if err := cfg.Shard.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	interp, err := interpreter.New(cfg.Ontology, cfg.Mapping, cfg.Catalog)
	if err != nil {
		return nil, err
	}
	etlCost := quality.DefaultETLCost(cfg.Catalog)
	p := &Platform{
		onto:      cfg.Ontology,
		mapg:      cfg.Mapping,
		cat:       cfg.Catalog,
		db:        cfg.DB,
		elic:      elicitor.New(cfg.Ontology, cfg.Mapping),
		interp:    interp,
		mdInt:     mdintegrator.New(nil, nil),
		etlInt:    etlintegrator.New(etlCost, true),
		storeDir:  cfg.StoreDir,
		etlCost:   etlCost,
		shardSpec: cfg.Shard,
	}
	if cfg.MatAggTopK > 0 {
		p.matAgg = olap.NewMatAgg(cfg.MatAggTopK)
	}
	// A store directory may already hold a lifecycle; restore it so the
	// platform resumes where the previous session stopped.
	if err := p.restore(); err != nil {
		return nil, fmt.Errorf("core: restoring lifecycle from %s: %w", cfg.StoreDir, err)
	}
	return p, nil
}

// registered is one requirement of the lifecycle with its partial
// design.
type registered struct {
	req *xrq.Requirement
	pd  *interpreter.PartialDesign
}

// ErrStore marks a change the platform could not write to its store
// directory; such a change is not applied.
var ErrStore = errors.New("core: writing the requirement list failed")

// restore loads the stored requirements, re-interprets them and
// re-derives the unified designs.
func (p *Platform) restore() error {
	reqs, err := repo.Load(p.storeDir)
	if err != nil {
		return err
	}
	list := make([]registered, 0, len(reqs))
	for _, r := range reqs {
		pd, err := p.interp.Interpret(r)
		if err != nil {
			return err
		}
		list = append(list, registered{r, pd})
	}
	md, etl, err := p.derive(list)
	if err != nil {
		return err
	}
	p.lifecycle, p.unifiedMD, p.unifiedETL = list, md, etl
	return nil
}

// Elicitor exposes the Requirements Elicitor backend.
func (p *Platform) Elicitor() *elicitor.Elicitor { return p.elic }

// DB exposes the execution platform.
func (p *Platform) DB() *storage.DB { return p.db }

// ChangeReport describes the effect of one lifecycle change.
type ChangeReport struct {
	RequirementID string
	// Rederived is true when the unified designs were rebuilt from
	// scratch (removal/change) rather than extended incrementally.
	Rederived bool
	MD        *mdintegrator.Report
	ETL       *etlintegrator.Report
}

// AddRequirement validates, interprets, stores and integrates a new
// information requirement; the unified designs grow incrementally.
func (p *Platform) AddRequirement(r *xrq.Requirement) (*ChangeReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r == nil {
		return nil, fmt.Errorf("core: nil requirement")
	}
	if p.find(r.ID) >= 0 {
		return nil, fmt.Errorf("core: requirement %q already registered (use ChangeRequirement)", r.ID)
	}
	pd, err := p.interp.Interpret(r)
	if err != nil {
		return nil, err
	}
	newMD, mdRep, err := p.mdInt.Integrate(p.unifiedMD, pd.MD)
	if err != nil {
		return nil, err
	}
	newETL, etlRep, err := p.etlInt.Integrate(p.unifiedETL, pd.ETL)
	if err != nil {
		return nil, err
	}
	list := append(slices.Clip(p.lifecycle), registered{r.Clone(), pd})
	if err := check(list, newMD, newETL); err != nil {
		return nil, err
	}
	if err := p.commitLocked(list, newMD, newETL); err != nil {
		return nil, err
	}
	return &ChangeReport{RequirementID: r.ID, MD: mdRep, ETL: etlRep}, nil
}

// RemoveRequirement drops a requirement and re-derives the unified
// designs from the remaining ones (the paper's "requirements might be
// changed or even removed from the analysis" scenario).
func (p *Platform) RemoveRequirement(id string) (*ChangeReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.find(id)
	if i < 0 {
		return nil, fmt.Errorf("core: requirement %q not registered", id)
	}
	if err := p.rederiveLocked(slices.Delete(slices.Clone(p.lifecycle), i, i+1)); err != nil {
		return nil, err
	}
	return &ChangeReport{RequirementID: id, Rederived: true}, nil
}

// ChangeRequirement replaces a registered requirement with a new
// version (same ID) and re-derives the unified designs.
func (p *Platform) ChangeRequirement(r *xrq.Requirement) (*ChangeReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r == nil {
		return nil, fmt.Errorf("core: nil requirement")
	}
	i := p.find(r.ID)
	if i < 0 {
		return nil, fmt.Errorf("core: requirement %q not registered", r.ID)
	}
	pd, err := p.interp.Interpret(r)
	if err != nil {
		return nil, err
	}
	list := slices.Clone(p.lifecycle)
	list[i] = registered{r.Clone(), pd}
	if err := p.rederiveLocked(list); err != nil {
		return nil, err
	}
	return &ChangeReport{RequirementID: r.ID, Rederived: true}, nil
}

// find returns the position of requirement id in the lifecycle, or -1.
func (p *Platform) find(id string) int {
	return slices.IndexFunc(p.lifecycle, func(e registered) bool { return e.req.ID == id })
}

// derive integrates the partial designs of list, in order, into unified
// designs that pass check (nil designs for an empty list). It reads no
// platform state.
func (p *Platform) derive(list []registered) (*xmd.Schema, *xlm.Design, error) {
	var md *xmd.Schema
	var etl *xlm.Design
	for _, e := range list {
		var err error
		if md, _, err = p.mdInt.Integrate(md, e.pd.MD); err != nil {
			return nil, nil, err
		}
		if etl, _, err = p.etlInt.Integrate(etl, e.pd.ETL); err != nil {
			return nil, nil, err
		}
	}
	if err := check(list, md, etl); err != nil {
		return nil, nil, err
	}
	return md, etl, nil
}

// check holds candidate unified designs to what every change promises:
// they satisfy each requirement of list, and the deployer takes them.
// sqlgen.Tables refuses, among others, two loaders of one table with
// different schemas, which a run would let overwrite each other.
func check(list []registered, md *xmd.Schema, etl *xlm.Design) error {
	for _, e := range list {
		if err := interpreter.Satisfies(md, e.req); err != nil {
			return fmt.Errorf("core: the unified design does not satisfy %q: %w", e.req.ID, err)
		}
	}
	if etl == nil {
		return nil
	}
	if _, err := sqlgen.Tables(etl); err != nil {
		return fmt.Errorf("core: the unified design cannot be deployed: %w", err)
	}
	return nil
}

// rederiveLocked makes list the lifecycle, with unified designs derived
// from scratch.
func (p *Platform) rederiveLocked(list []registered) error {
	md, etl, err := p.derive(list)
	if err != nil {
		return err
	}
	return p.commitLocked(list, md, etl)
}

// commitLocked writes list as the stored requirement list and, once the
// write succeeded, makes it the lifecycle with md and etl its unified
// designs. A failed write changes nothing.
func (p *Platform) commitLocked(list []registered, md *xmd.Schema, etl *xlm.Design) error {
	reqs := make([]*xrq.Requirement, len(list))
	for i, e := range list {
		reqs[i] = e.req
	}
	if err := repo.Write(p.storeDir, reqs); err != nil {
		return fmt.Errorf("%w: %w", ErrStore, err)
	}
	p.lifecycle, p.unifiedMD, p.unifiedETL = list, md, etl
	p.olapEng = nil
	p.matAgg.Invalidate()
	return nil
}

// Requirements returns the registered requirements in registration
// order.
func (p *Platform) Requirements() []*xrq.Requirement {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*xrq.Requirement, 0, len(p.lifecycle))
	for _, e := range p.lifecycle {
		out = append(out, e.req.Clone())
	}
	return out
}

// Unified returns the current unified design solutions (clones), or
// nil before the first requirement.
func (p *Platform) Unified() (*xmd.Schema, *xlm.Design) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var md *xmd.Schema
	var etl *xlm.Design
	if p.unifiedMD != nil {
		md = p.unifiedMD.Clone()
	}
	if p.unifiedETL != nil {
		etl = p.unifiedETL.Clone()
	}
	return md, etl
}

// Partial returns the stored partial design of a requirement.
func (p *Platform) Partial(id string) (*interpreter.PartialDesign, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.find(id)
	if i < 0 {
		return nil, false
	}
	return p.lifecycle[i].pd, true
}

// CheckSatisfiability re-verifies that every registered requirement
// is answerable by the unified MD schema.
func (p *Platform) CheckSatisfiability() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.unifiedMD == nil {
		if len(p.lifecycle) == 0 {
			return nil
		}
		return fmt.Errorf("core: no unified design")
	}
	for _, e := range p.lifecycle {
		if err := interpreter.Satisfies(p.unifiedMD, e.req); err != nil {
			return err
		}
	}
	return nil
}

// EstimatedETLCost returns the quality-factor estimate of the
// unified ETL flow (0 before the first requirement).
func (p *Platform) EstimatedETLCost() (float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.unifiedETL == nil {
		return 0, nil
	}
	c, _, err := p.etlCost.Estimate(p.unifiedETL)
	return c, err
}

// Deployment bundles the Design Deployer's artifacts.
type Deployment struct {
	Database string
	// DDL is the PostgreSQL deployment script for the DW schema.
	DDL string
	// PDI is the Pentaho Data Integration transformation (.ktr).
	PDI string
	// StarQueries holds one sample OLAP query per fact table.
	StarQueries map[string]string
	// Tables lists the deployed table definitions.
	Tables []sqlgen.TableDef
	// FlowSQL is the ETL process as INSERT…SELECT statements (the
	// metadata layer's SQL export notation).
	FlowSQL string
	// PigLatin is the ETL process as an Apache PigLatin script.
	PigLatin string
}

// ExportFlow renders the unified ETL design in a registered external
// notation ("sql", "pig", ...).
func (p *Platform) ExportFlow(notation string) (string, error) {
	p.mu.Lock()
	etl := p.unifiedETL
	p.mu.Unlock()
	if etl == nil {
		return "", fmt.Errorf("core: nothing to export; add requirements first")
	}
	return export.Export(notation, etl)
}

// Deploy generates the platform-specific artifacts for the unified
// design (PostgreSQL DDL + PDI transformation + sample star queries).
func (p *Platform) Deploy(database string) (*Deployment, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.unifiedETL == nil || p.unifiedMD == nil {
		return nil, fmt.Errorf("core: nothing to deploy; add requirements first")
	}
	ddl, err := sqlgen.DDL(database, p.unifiedETL)
	if err != nil {
		return nil, err
	}
	ktr, err := pdi.Marshal(p.unifiedETL, database)
	if err != nil {
		return nil, err
	}
	dep := &Deployment{Database: database, DDL: ddl, PDI: ktr, StarQueries: map[string]string{}}
	dep.Tables, err = sqlgen.Tables(p.unifiedETL)
	if err != nil {
		return nil, err
	}
	if dep.FlowSQL, err = export.Export("sql", p.unifiedETL); err != nil {
		return nil, err
	}
	if dep.PigLatin, err = export.Export("pig", p.unifiedETL); err != nil {
		return nil, err
	}
	var factTables []string
	for _, f := range p.unifiedMD.Facts {
		factTables = append(factTables, f.Name)
	}
	sort.Strings(factTables)
	for _, ft := range factTables {
		q, err := sqlgen.StarQuery(p.unifiedMD, p.unifiedETL, ft)
		if err == nil {
			dep.StarQueries[ft] = q
		}
	}
	return dep, nil
}

// Run executes the unified ETL natively against the platform's
// database, creating and populating the deployed DW tables. The
// design is cloned for the run, so concurrent runs — and concurrent
// OLAP queries — never share mutable design state (validation caches
// inferred schemas on the design's nodes).
//
// On a sharded platform (Config.Shard enabled) the run loads only
// this shard's partition of each fact table — dimensions load in
// full — via the engine's load-filter hook.
func (p *Platform) Run() (*engine.Result, error) {
	p.mu.Lock()
	var etl *xlm.Design
	if p.unifiedETL != nil {
		etl = p.unifiedETL.Clone()
	}
	db := p.db
	p.mu.Unlock()
	if etl == nil {
		return nil, fmt.Errorf("core: nothing to run; add requirements first")
	}
	if db == nil {
		return nil, fmt.Errorf("core: platform has no execution database")
	}
	var opts engine.Options
	if p.shardSpec.Enabled() {
		defs, err := sqlgen.Tables(etl)
		if err != nil {
			return nil, fmt.Errorf("core: deriving shard partition keys: %w", err)
		}
		opts.LoadFilter = p.shardSpec.LoadFilter(shard.PartitionKeys(defs))
	}
	return engine.RunWithOptions(etl, db, opts)
}

// Shard returns the platform's shard identity (zero value when not
// sharded).
func (p *Platform) Shard() shard.Spec { return p.shardSpec }

// OLAP returns a query engine over the deployed DW (after Run). The
// engine is immutable and safe for concurrent use; it is built once
// per unified design (from clones, so queries never touch the live
// design) and rebuilt after the next lifecycle change.
func (p *Platform) OLAP() (*olap.Engine, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.unifiedMD == nil || p.unifiedETL == nil {
		return nil, fmt.Errorf("core: no unified design; add requirements first")
	}
	if p.olapEng == nil {
		eng, err := olap.New(p.unifiedMD.Clone(), p.unifiedETL.Clone(), p.db, &p.dimCounts)
		if err != nil {
			return nil, err
		}
		if p.matAgg != nil {
			eng = eng.WithMatAgg(p.matAgg)
		}
		p.olapEng = eng
	}
	return p.olapEng, nil
}

// DimCacheStats reports the dimension-cache hits and misses of every
// engine the platform has built, old and current.
func (p *Platform) DimCacheStats() (hits, misses int64) { return p.dimCounts.Load() }

// MatAgg exposes the materialized-aggregate store, or nil when the
// subsystem is disabled (Config.MatAggTopK == 0). Serving layers call
// its Refresh after warehouse reloads to re-materialize hot aggregates
// at the new version.
func (p *Platform) MatAgg() *olap.MatAgg {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.matAgg
}

// RunSeparately executes every requirement's partial ETL flow
// independently — the non-integrated baseline the demo compares
// against.
func (p *Platform) RunSeparately() (*engine.Result, error) {
	p.mu.Lock()
	flows := make([]*xlm.Design, 0, len(p.lifecycle))
	for _, e := range p.lifecycle {
		flows = append(flows, e.pd.ETL.Clone())
	}
	db := p.db
	p.mu.Unlock()
	if db == nil {
		return nil, fmt.Errorf("core: platform has no execution database")
	}
	total := &engine.Result{Loaded: map[string]int64{}}
	for _, etl := range flows {
		res, err := engine.Run(etl, db)
		if err != nil {
			return nil, err
		}
		for k, v := range res.Loaded {
			total.Loaded[k] += v
		}
		total.Stats = append(total.Stats, res.Stats...)
		total.Elapsed += res.Elapsed
	}
	return total, nil
}
