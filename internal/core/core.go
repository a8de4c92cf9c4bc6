// Package core wires Quarry's components into the end-to-end platform
// of the paper's Figure 1: Requirements Elicitor → Requirements
// Interpreter → Design Integrator (MD + ETL) → Design Deployer, all
// communicating through the metadata repository.
//
// The Platform owns the DW design lifecycle: requirements are added,
// changed or removed; each change re-derives validated partial
// designs, incrementally integrates them into the unified design
// solutions, re-checks soundness (MD integrity constraints) and
// satisfiability (every registered requirement is still answerable),
// and keeps the repository current. Deployment produces the
// platform-specific artifacts (PostgreSQL DDL, Pentaho PDI .ktr) and
// can execute the unified ETL natively to populate the deployed DW.
package core

import (
	"fmt"
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
	// StorageDir opens a paged, disk-backed execution platform rooted
	// at the given directory (storage.Open) when DB is nil: warehouse
	// tables survive process restarts, every ETL run commits
	// crash-safely, and reopening recovers the last committed version.
	// Ignored when DB is set; empty with a nil DB leaves the platform
	// without an execution database.
	StorageDir string
	// StoreDir persists the metadata repository; empty keeps it in
	// memory.
	StoreDir string
	// MDCost / ETLCost override the default quality factors.
	MDCost  quality.MDCostModel
	ETLCost quality.ETLCostModel
	// Resolver overrides the end-user feedback hook (default:
	// auto-approve).
	Resolver mdintegrator.Resolver
	// DisableReordering turns off the ETL integrator's
	// equivalence-rule alignment (ablation).
	DisableReordering bool
	// Engine tunes native ETL execution (DAG parallelism, batch
	// size); the zero value uses the engine defaults (GOMAXPROCS
	// workers, 1024-row batches).
	Engine engine.Options
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

	elic       *elicitor.Elicitor
	interp     *interpreter.Interpreter
	mdInt      *mdintegrator.Integrator
	etlInt     *etlintegrator.Integrator
	repo       *repo.Designs
	etlCost    quality.ETLCostModel
	engineOpts engine.Options
	shardSpec  shard.Spec

	mu         sync.Mutex
	order      []string // requirement ids in registration order
	reqs       map[string]*xrq.Requirement
	partials   map[string]*interpreter.PartialDesign
	unifiedMD  *xmd.Schema
	unifiedETL *xlm.Design
	// olapEng is the lazily-built OLAP engine over the current unified
	// design; it is immutable (built from clones) and shared by every
	// concurrent query until a design change invalidates it.
	olapEng *olap.Engine
	// matAgg outlives engine rebuilds (entries are DB-version-keyed);
	// design changes invalidate it wholesale. Nil when disabled.
	matAgg *olap.MatAgg
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
	db := cfg.DB
	if db == nil && cfg.StorageDir != "" {
		if db, err = storage.Open(cfg.StorageDir); err != nil {
			return nil, fmt.Errorf("core: opening warehouse at %s: %w", cfg.StorageDir, err)
		}
	}
	store, err := repo.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	etlCost := cfg.ETLCost
	if etlCost == nil {
		etlCost = quality.DefaultETLCost(cfg.Catalog)
	}
	p := &Platform{
		onto:       cfg.Ontology,
		mapg:       cfg.Mapping,
		cat:        cfg.Catalog,
		db:         db,
		elic:       elicitor.New(cfg.Ontology, cfg.Mapping),
		interp:     interp,
		mdInt:      mdintegrator.New(cfg.MDCost, cfg.Resolver),
		etlInt:     etlintegrator.New(etlCost, !cfg.DisableReordering),
		repo:       repo.NewDesigns(store),
		etlCost:    etlCost,
		engineOpts: cfg.Engine,
		shardSpec:  cfg.Shard,
		reqs:       map[string]*xrq.Requirement{},
		partials:   map[string]*interpreter.PartialDesign{},
	}
	if cfg.MatAggTopK > 0 {
		p.matAgg = olap.NewMatAgg(cfg.MatAggTopK)
	}
	// A persistent repository may already hold a lifecycle; restore
	// it so the platform resumes where the previous session stopped.
	if cfg.StoreDir != "" {
		if err := p.restore(); err != nil {
			return nil, fmt.Errorf("core: restoring lifecycle from %s: %w", cfg.StoreDir, err)
		}
	}
	return p, nil
}

// restore reloads registered requirements from the repository,
// re-interprets them and re-derives the unified designs.
func (p *Platform) restore() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range p.repo.Requirements() {
		r, err := p.repo.Requirement(id)
		if err != nil {
			return err
		}
		pd, err := p.interp.Interpret(r)
		if err != nil {
			return err
		}
		p.reqs[id] = r
		p.partials[id] = pd
		p.order = append(p.order, id)
	}
	if len(p.order) == 0 {
		return nil
	}
	return p.rederiveLocked()
}

// Elicitor exposes the Requirements Elicitor backend.
func (p *Platform) Elicitor() *elicitor.Elicitor { return p.elic }

// Repository exposes the metadata repository.
func (p *Platform) Repository() *repo.Designs { return p.repo }

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
	if _, dup := p.reqs[r.ID]; dup {
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
	// Satisfiability of every requirement against the new design.
	if err := p.checkAllSatisfiedLocked(newMD, r); err != nil {
		return nil, err
	}
	// Commit.
	p.reqs[r.ID] = r.Clone()
	p.partials[r.ID] = pd
	p.order = append(p.order, r.ID)
	p.unifiedMD = newMD
	p.unifiedETL = newETL
	p.olapEng = nil
	p.matAgg.Invalidate()
	if err := p.persistLocked(r, pd, true); err != nil {
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
	if _, ok := p.reqs[id]; !ok {
		return nil, fmt.Errorf("core: requirement %q not registered", id)
	}
	delete(p.reqs, id)
	delete(p.partials, id)
	for i, oid := range p.order {
		if oid == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.repo.DeleteRequirement(id)
	p.repo.DeleteMD(partialKey(id))
	p.repo.DeleteETL(partialKey(id))
	if err := p.rederiveLocked(); err != nil {
		return nil, err
	}
	// Without the flush a restart over the same StoreDir restores the
	// removed requirement.
	if err := p.repo.Flush(); err != nil {
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
	if _, ok := p.reqs[r.ID]; !ok {
		return nil, fmt.Errorf("core: requirement %q not registered", r.ID)
	}
	pd, err := p.interp.Interpret(r)
	if err != nil {
		return nil, err
	}
	old := p.reqs[r.ID]
	oldPD := p.partials[r.ID]
	p.reqs[r.ID] = r.Clone()
	p.partials[r.ID] = pd
	if err := p.rederiveLocked(); err != nil {
		// Roll back.
		p.reqs[r.ID] = old
		p.partials[r.ID] = oldPD
		_ = p.rederiveLocked()
		return nil, err
	}
	// rederiveLocked has stored the unified designs already.
	if err := p.persistLocked(r, pd, false); err != nil {
		return nil, err
	}
	return &ChangeReport{RequirementID: r.ID, Rederived: true}, nil
}

// rederiveLocked rebuilds the unified designs by re-integrating all
// registered partial designs in registration order.
func (p *Platform) rederiveLocked() error {
	var md *xmd.Schema
	var etl *xlm.Design
	for _, id := range p.order {
		pd := p.partials[id]
		var err error
		md, _, err = p.mdInt.Integrate(md, pd.MD)
		if err != nil {
			return err
		}
		etl, _, err = p.etlInt.Integrate(etl, pd.ETL)
		if err != nil {
			return err
		}
	}
	if md != nil {
		for _, id := range p.order {
			if err := interpreter.Satisfies(md, p.reqs[id]); err != nil {
				return fmt.Errorf("core: re-derived design unsatisfiable: %w", err)
			}
		}
	}
	p.unifiedMD = md
	p.unifiedETL = etl
	p.olapEng = nil
	p.matAgg.Invalidate()
	return p.saveUnifiedLocked()
}

// saveUnifiedLocked stores the current unified designs.
func (p *Platform) saveUnifiedLocked() error {
	if p.unifiedMD != nil {
		if err := p.repo.SaveMD("unified", p.unifiedMD); err != nil {
			return err
		}
	}
	if p.unifiedETL != nil {
		if err := p.repo.SaveETL("unified", p.unifiedETL); err != nil {
			return err
		}
	}
	return nil
}

// checkAllSatisfiedLocked verifies every registered requirement plus
// the incoming one against a candidate unified MD schema.
func (p *Platform) checkAllSatisfiedLocked(md *xmd.Schema, incoming *xrq.Requirement) error {
	if err := interpreter.Satisfies(md, incoming); err != nil {
		return fmt.Errorf("core: new design does not satisfy %q: %w", incoming.ID, err)
	}
	for _, id := range p.order {
		if err := interpreter.Satisfies(md, p.reqs[id]); err != nil {
			return fmt.Errorf("core: integration would break requirement %q: %w", id, err)
		}
	}
	return nil
}

// partialKey is the repository key of a requirement's partial MD and
// ETL designs.
func partialKey(id string) string { return "partial:" + id }

// persistLocked stores a requirement with its partial designs — and the
// unified designs when the caller has not stored them since they last
// changed — and flushes the repository.
func (p *Platform) persistLocked(r *xrq.Requirement, pd *interpreter.PartialDesign, unified bool) error {
	if err := p.repo.SaveRequirement(r); err != nil {
		return err
	}
	if err := p.repo.SaveMD(partialKey(r.ID), pd.MD); err != nil {
		return err
	}
	if err := p.repo.SaveETL(partialKey(r.ID), pd.ETL); err != nil {
		return err
	}
	if unified {
		if err := p.saveUnifiedLocked(); err != nil {
			return err
		}
	}
	return p.repo.Flush()
}

// Requirements returns the registered requirements in registration
// order.
func (p *Platform) Requirements() []*xrq.Requirement {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*xrq.Requirement, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.reqs[id].Clone())
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
	pd, ok := p.partials[id]
	return pd, ok
}

// CheckSatisfiability re-verifies that every registered requirement
// is answerable by the unified MD schema.
func (p *Platform) CheckSatisfiability() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.unifiedMD == nil {
		if len(p.order) == 0 {
			return nil
		}
		return fmt.Errorf("core: no unified design")
	}
	for _, id := range p.order {
		if err := interpreter.Satisfies(p.unifiedMD, p.reqs[id]); err != nil {
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
// database with the configured engine options, creating and
// populating the deployed DW tables.
func (p *Platform) Run() (*engine.Result, error) {
	return p.RunWith(p.EngineOptions())
}

// RunWith executes the unified ETL natively with explicit engine
// options (overriding the configured defaults for this run only).
// The design is cloned for the run, so concurrent runs — and
// concurrent OLAP queries — never share mutable design state
// (validation caches inferred schemas on the design's nodes).
//
// On a sharded platform (Config.Shard enabled) the run loads only
// this shard's partition of each fact table — dimensions load in
// full — via the engine's load-filter hook, unless the caller set a
// LoadFilter of its own.
func (p *Platform) RunWith(opts engine.Options) (*engine.Result, error) {
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
	if p.shardSpec.Enabled() && opts.LoadFilter == nil {
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

// EngineOptions returns the configured native execution options.
func (p *Platform) EngineOptions() engine.Options {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engineOpts
}

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
		eng, err := olap.New(p.unifiedMD.Clone(), p.unifiedETL.Clone(), p.db)
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
	order := append([]string(nil), p.order...)
	flows := make([]*xlm.Design, 0, len(order))
	for _, id := range order {
		flows = append(flows, p.partials[id].ETL.Clone())
	}
	db := p.db
	p.mu.Unlock()
	if db == nil {
		return nil, fmt.Errorf("core: platform has no execution database")
	}
	total := &engine.Result{Loaded: map[string]int64{}}
	for _, etl := range flows {
		res, err := engine.RunWithOptions(etl, db, p.EngineOptions())
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
