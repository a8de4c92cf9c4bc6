// Package olap is Quarry's serving layer: it answers analytical
// (OLAP) cube queries over the deployed data warehouse — the
// consumption side of the lifecycle, motivating the paper's §1
// argument that the whole point of a well-designed MD schema is
// faster analytical reads.
//
// A CubeQuery names a fact of the unified MD schema, the dimension
// descriptors to group by (at any roll-up level of the xMD
// hierarchies), slicer predicates, aggregated measures, and an
// optional diamond dice. Two executors answer it:
//
//   - Query — the vectorized fast path: the star join
//     (fact ⋈ dimensions) and hash aggregation are planned and executed
//     directly over storage snapshot cursors using the engine's batch
//     kernels. No xLM design is constructed and nothing is written to
//     the warehouse; results stay in memory per request, so any number
//     of queries run concurrently with each other and with ETL loads
//     (snapshot isolation: each query reads the stable view captured
//     at its start).
//   - QueryStarFlow — the correctness oracle: the query is compiled to
//     an xLM star flow (exactly the PR 1 pattern of RunMaterializing)
//     and run by the full engine against a scratch database that
//     shares frozen snapshot views of the deployed tables. Results are
//     byte-identical to the fast path; the scratch DB keeps the oracle
//     from ever writing into the warehouse.
//
// Both executors resolve the query through one shared planner
// (planner.go), which is what makes them byte-identical by
// construction: same join order, same row order into aggregation,
// same kernels. That includes MIN/MAX over every ordered type —
// strings lexicographically, bools false<true, via
// expr.Value.Compare: the xLM validator accepts them like the fast
// path does, so the oracle can always replay a servable query.
//
// A third answer source sits in front of both when enabled: the
// adaptive materialized-aggregate store (matagg.go) observes the
// query log, materializes the hottest granularities as DB-version-keyed
// partial aggregation states, and rewrites covered queries onto the
// coarsest usable aggregate — still byte-identical, because a rewrite
// merges the kernel's own states with the exact algebra the shard
// gather uses (engine.FinalizePartials). Every republish bumps the DB
// version and thereby invalidates all of it implicitly.
//
// The layer reads the warehouse exclusively through
// storage.Snapshot/TableView cursors, so it is oblivious to where the
// store keeps its segments: in memory or in a directory, the cursors
// page through the store's buffer pool.
package olap

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"quarry/internal/expr"
	"quarry/internal/sqlgen"
	"quarry/internal/storage"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
)

// CubeQuery is an analytical query over a deployed fact table.
type CubeQuery struct {
	// Fact is the fact table name (e.g. "fact_table_revenue").
	Fact string
	// GroupBy lists dimension descriptor columns to group by (must
	// exist in one of the fact's dimension tables or in the fact
	// itself). Descriptors of any roll-up level may be named directly;
	// the deployed dimension tables are denormalised over their full
	// hierarchy.
	GroupBy []string
	// Measures maps output names to aggregate specs over fact or
	// dimension columns, e.g. {"total": {"SUM", "revenue"}}.
	Measures []MeasureSpec
	// Filter is an optional predicate over fact or dimension columns.
	Filter string
	// RollUp maps an xMD dimension name to the hierarchy level to
	// aggregate at (e.g. {"Supplier": "Nation"}); each named level's
	// key descriptor joins the group-by columns. Engine.RollUp and
	// Engine.DrillDown navigate a query along the hierarchy.
	RollUp map[string]string
	// Dice, when non-nil, applies a diamond dice (Webb, Kaser,
	// Lemire) to the cube before its measures are finalised: attribute
	// values whose carat falls below their threshold are iteratively
	// pruned, with every cell that carries them, until the remaining
	// subcube is stable.
	Dice *DiceSpec
}

// MeasureSpec is one aggregated measure.
type MeasureSpec struct {
	Out  string
	Func string // SUM/AVG/MIN/MAX/COUNT
	Col  string // input column ("" only for COUNT(*))
}

// DiceSpec configures a diamond dice. The carat of an attribute value
// is the aggregate (COUNT of rows, or SUM of a non-negative measure
// column) over the rows of the remaining cells that carry that value,
// summed exactly and rounded once, so row order never moves the
// diamond. Numbers are one value when the group-by makes them one
// group (−0 and +0 are).
type DiceSpec struct {
	// Func is the carat aggregate: "COUNT" or "SUM". Diamond dicing
	// requires a monotone carat (deleting rows must never raise
	// another value's carat), hence SUM demands a numeric column whose
	// values are non-negative (a NaN fails the query too).
	Func string
	// Col is the measure column for SUM carats ("" for COUNT).
	Col string
	// Thresholds maps group-by columns to their minimum carat; only
	// listed columns are diced.
	Thresholds map[string]float64
}

// Answer-source classes, stamped on Result.Class by whichever
// executor produced the answer. The serving layer's admission
// controller keys its per-class service-time estimates on these, so
// they must stay stable: an unknown class falls back to the
// fast-path estimate.
const (
	// ClassFast is the vectorized base-fact fast path.
	ClassFast = "fast"
	// ClassMatAgg is a rewrite onto a materialized aggregate.
	ClassMatAgg = "matagg"
	// ClassDice is a diamond-dice query (the fold, then an iterative
	// fixpoint over the cube's cells).
	ClassDice = "dice"
	// ClassOracle is the star-flow reference executor.
	ClassOracle = "oracle"
	// ClassCacheHit is stamped by the serving layer when an answer
	// comes straight from the result cache; the executors never
	// produce it.
	ClassCacheHit = "cache_hit"
)

// DeadlineHeader carries a client's latency budget for one query,
// end to end: quarryd bounds the query by it (504 once it is spent) and
// the routers hold every attempt to what is left of it. Its grammar is
// ParseDeadline's, on both sides of the hop.
const DeadlineHeader = "X-Quarry-Deadline"

// ParseDeadline reads a DeadlineHeader value: a bare integer is
// milliseconds, anything else a Go duration ("250ms", "2s");
// surrounding space is ignored. An absent (empty) header is no budget,
// (0, nil). A value that is neither form, or not positive, is an
// error — quarryd answers it with a 400, a router lets it bound
// nothing and travel on.
func ParseDeadline(h string) (time.Duration, error) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, nil
	}
	var d time.Duration
	if ms, err := strconv.ParseInt(h, 10, 64); err == nil {
		d = time.Duration(ms) * time.Millisecond
	} else if d, err = time.ParseDuration(h); err != nil {
		return 0, fmt.Errorf("invalid %s header %q: want a positive Go duration (e.g. \"250ms\") or integer milliseconds", DeadlineHeader, h)
	}
	if d <= 0 {
		return 0, fmt.Errorf("invalid %s header %q: budget must be positive", DeadlineHeader, h)
	}
	return d, nil
}

// Result is an ordered, in-memory result set.
type Result struct {
	Columns []string
	Rows    [][]expr.Value
	// Version is the warehouse structural version of the snapshot the
	// query actually ran against. Callers caching results keyed by
	// version MUST key on this — not on a version read before
	// executing, which a concurrent ETL commit can leave one behind
	// the snapshot the query observed.
	Version uint64
	// Class names the answer source (Class* constants): which executor
	// path produced the rows. Costs differ by orders of magnitude
	// across classes, so the serving layer tracks service times and
	// sheds load per class.
	Class string
}

// Engine answers cube queries against a database holding a deployed
// design. It is immutable after New and safe for concurrent use.
type Engine struct {
	md   *xmd.Schema
	etl  *xlm.Design
	db   *storage.DB
	defs []sqlgen.TableDef
	// dims caches the fast path's dimension build sides (dimcache.go).
	dims *dimCache
	// mat, when set, is the materialized-aggregate store consulted by
	// the fast path; see matagg.go. The oracle never uses either.
	mat *MatAgg
}

// New builds an OLAP engine over the unified design and the database
// that Platform.Run populated. Its dimension cache counts lookups into
// counts, or into counts of its own when counts is nil.
func New(md *xmd.Schema, etl *xlm.Design, db *storage.DB, counts *DimCacheCounts) (*Engine, error) {
	if md == nil || etl == nil || db == nil {
		return nil, fmt.Errorf("olap: md, etl and db are required")
	}
	defs, err := sqlgen.Tables(etl)
	if err != nil {
		return nil, fmt.Errorf("olap: deriving deployed tables: %w", err)
	}
	return &Engine{md: md, etl: etl, db: db, defs: defs, dims: newDimCache(counts)}, nil
}

// tableOf returns the deployed definition of a table.
func (e *Engine) tableOf(name string) (*sqlgen.TableDef, error) {
	for i := range e.defs {
		if e.defs[i].Name == name {
			return &e.defs[i], nil
		}
	}
	return nil, fmt.Errorf("olap: table %q is not part of the deployed design", name)
}

// WithMatAgg returns a copy of the engine that records its query log
// into — and answers eligible queries from — the given materialized
// aggregate store (nil detaches). The store outlives engine rebuilds:
// entries are keyed by DB version, so a warehouse republish makes
// them unservable until the store's next Refresh.
func (e *Engine) WithMatAgg(m *MatAgg) *Engine {
	ne := *e
	ne.mat = m
	return &ne
}

// MatAgg returns the attached materialized-aggregate store, if any.
func (e *Engine) MatAgg() *MatAgg { return e.mat }

// Query answers the cube query on the vectorized fast path: star join
// and hash aggregation directly over a storage snapshot, entirely in
// memory — or, when a materialized aggregate of the right granularity
// and version exists, by rewriting onto it (see matagg.go). See
// QueryStarFlow for the engine-executed oracle.
func (e *Engine) Query(q CubeQuery) (*Result, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryContext is Query under a context: cancellation stops the scan
// at the next batch boundary and returns ctx.Err(). The serving layer
// passes the request context so a disconnected client's query stops
// burning its concurrency slot.
func (e *Engine) QueryContext(ctx context.Context, q CubeQuery) (*Result, error) {
	p, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	snap, err := e.db.Snapshot(p.tables...)
	if err != nil {
		return nil, err
	}
	return e.answerPlanned(ctx, p, snap)
}

// QuerySnapshot answers the query on the fast path against an
// existing snapshot (which must cover the fact and dimension tables
// the query touches). Callers that answer several queries from one
// consistent view — or cache results keyed by Snapshot.Version —
// take their snapshot once and reuse it.
func (e *Engine) QuerySnapshot(q CubeQuery, snap *storage.Snapshot) (*Result, error) {
	p, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	return e.answerPlanned(context.Background(), p, snap)
}

// answerPlanned records the planned query in the aggregate store's
// log, serves it from the coarsest eligible materialized aggregate,
// and otherwise falls back to the base-fact fast path.
func (e *Engine) answerPlanned(ctx context.Context, p *starPlan, snap *storage.Snapshot) (*Result, error) {
	if e.mat != nil {
		e.mat.record(p)
		res, ok, err := e.mat.answer(p, snap)
		if err != nil {
			return nil, err
		}
		if ok {
			res.Version = snap.Version()
			res.Class = ClassMatAgg
			return res, nil
		}
	}
	return e.execFast(ctx, p, snap)
}

// Snapshot captures the consistent view the query would read:
// the fact table plus every dimension table the plan joins.
func (e *Engine) Snapshot(q CubeQuery) (*storage.Snapshot, error) {
	p, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	return e.db.Snapshot(p.tables...)
}

// Facts lists the queryable fact tables of the design.
func (e *Engine) Facts() []string {
	var out []string
	for _, f := range e.md.Facts {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}

// Levels returns a dimension's hierarchy as level names ordered base
// → coarsest (breadth-first over the roll-up edges).
func (e *Engine) Levels(dimension string) ([]string, error) {
	d, ok := e.md.Dimension(dimension)
	if !ok {
		return nil, fmt.Errorf("olap: unknown dimension %q", dimension)
	}
	bases := d.BaseLevels()
	var out []string
	seen := map[string]bool{}
	var queue []string
	for _, b := range bases {
		queue = append(queue, b.Name)
		seen[b.Name] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, r := range d.Rollups {
			if r.From == cur && !seen[r.To] {
				seen[r.To] = true
				queue = append(queue, r.To)
			}
		}
	}
	return out, nil
}

// currentLevel resolves the level a query aggregates a dimension at:
// the explicit RollUp entry, or the fact's base level for the
// dimension.
func (e *Engine) currentLevel(q CubeQuery, dimension string) (string, *xmd.Dimension, error) {
	d, ok := e.md.Dimension(dimension)
	if !ok {
		return "", nil, fmt.Errorf("olap: unknown dimension %q", dimension)
	}
	if lvl, ok := q.RollUp[dimension]; ok {
		if _, ok := d.Level(lvl); !ok {
			return "", nil, fmt.Errorf("olap: dimension %q has no level %q", dimension, lvl)
		}
		return lvl, d, nil
	}
	bases := d.BaseLevels()
	if len(bases) == 0 {
		return "", nil, fmt.Errorf("olap: dimension %q has no base level", dimension)
	}
	return bases[0].Name, d, nil
}

// withLevel returns a copy of q aggregating dimension at level.
func withLevel(q CubeQuery, dimension, level string) CubeQuery {
	ru := make(map[string]string, len(q.RollUp)+1)
	for k, v := range q.RollUp {
		ru[k] = v
	}
	ru[dimension] = level
	q.RollUp = ru
	return q
}

// RollUp returns a copy of the query aggregating the dimension one
// level coarser along the xMD hierarchy (e.g. Supplier → Nation). It
// fails at the top of the hierarchy or if the roll-up is ambiguous
// (branching hierarchies need an explicit RollUp entry).
func (e *Engine) RollUp(q CubeQuery, dimension string) (CubeQuery, error) {
	cur, d, err := e.currentLevel(q, dimension)
	if err != nil {
		return q, err
	}
	var next string
	for _, r := range d.Rollups {
		if r.From != cur {
			continue
		}
		if next != "" {
			return q, fmt.Errorf("olap: dimension %q rolls up from %q to both %q and %q; set RollUp explicitly", dimension, cur, next, r.To)
		}
		next = r.To
	}
	if next == "" {
		return q, fmt.Errorf("olap: dimension %q is already at its coarsest level %q", dimension, cur)
	}
	return withLevel(q, dimension, next), nil
}

// DrillDown returns a copy of the query aggregating the dimension one
// level finer (the inverse of RollUp). It fails at the base level or
// if the drill-down is ambiguous.
func (e *Engine) DrillDown(q CubeQuery, dimension string) (CubeQuery, error) {
	cur, d, err := e.currentLevel(q, dimension)
	if err != nil {
		return q, err
	}
	var prev string
	for _, r := range d.Rollups {
		if r.To != cur {
			continue
		}
		if prev != "" {
			return q, fmt.Errorf("olap: dimension %q drills down from %q to both %q and %q; set RollUp explicitly", dimension, cur, prev, r.From)
		}
		prev = r.From
	}
	if prev == "" {
		return q, fmt.Errorf("olap: dimension %q is already at its base level %q", dimension, cur)
	}
	return withLevel(q, dimension, prev), nil
}
