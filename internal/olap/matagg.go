package olap

// Materialized aggregates, write side: the query log and Refresh. The
// read side — cells and serve — is matagg_serve.go.
//
// The store has one admission rule: materialize what was asked,
// most-asked first. Every planned cube query, a shard's partial alike,
// is logged as its pattern — (fact, group-by set, measure set), the
// group-by set resolved through the xMD roll-up hierarchies and widened
// by the filter's identifiers, the measure set holding a dice's hidden
// carat aggregates too, so a pattern names exactly the granularity and
// the states that answer the query — and a pattern's weight is how
// often it was asked. Refresh walks the patterns hottest first and
// builds entries until topK stand. Nothing is derived, estimated or
// over-built: a hot query's own pattern, with its own join set, is
// what gets materialized, which is also what lets the read side
// demand an equal join set at no cost in served share
// (dash_zipf: 99 % of the result-cache misses served; the hierarchy
// lattice, the 2× candidate over-build ranked by scan fan-in and the
// byte-budget knapsack this rule replaced served 91 %, see
// docs/BENCHMARKING.md "Ledger: PR 20").
//
// The log is bounded by maxPatterns because group-by sets arrive from
// clients: a full log counts the query and drops the newcomer, in O(1)
// under the serving lock. Ageing happens where the log is read, in
// Refresh: after ranking, every weight is multiplied by ageing and a
// pattern that fell below one observation is forgotten. A pattern
// nobody asks for any more therefore leaves the log after
// log2(weight)+1 refreshes, which bounds how long stale weights can
// keep a shifted workload out of a full log.
//
// Each entry is built by the build/probe body every query the store
// does not serve folds with (foldOn), over its own storage snapshot,
// and keeps what that body returns — the aggregation kernel's
// pre-finalisation group states as columns (engine.Cells), in the
// order the fold met them — plus the order that sorts them by their
// keys. No finalised row is kept: every answer is finalised from the
// cells. Nothing is written to any database. An entry is keyed by its snapshot's DB version; a republish
// (every /api/run bumps the version exactly once at Publish)
// therefore invalidates every aggregate implicitly; queries compare
// versions and fall back to the base-fact path until the next Refresh.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"quarry/internal/engine"
	"quarry/internal/expr"
)

// maxPatterns bounds the query-log pattern map; a full log drops
// newcomers until Refresh has aged stale patterns out.
const maxPatterns = 512

// ageing is the factor Refresh multiplies every weight by.
const ageing = 0.5

// aggMeasure is one stored measure of a pattern, canonicalized.
type aggMeasure struct {
	Func string // canonical upper-case aggregate
	Col  string // source column; "" for COUNT(*)
}

func (m aggMeasure) key() string { return m.Func + ":" + m.Col }

// aggPattern is one (fact, group-by set, measure set) granularity
// observed in the query log. Everything but weight is immutable after
// creation.
type aggPattern struct {
	key      string
	fact     string
	groupBy  []string // sorted, unique
	measures []aggMeasure
	weight   float64 // observations, aged by every Refresh
}

func patternKey(fact string, groupBy []string, measures []aggMeasure) string {
	mk := make([]string, len(measures))
	for i, m := range measures {
		mk[i] = m.key()
	}
	return fact + "|" + strings.Join(groupBy, ",") + "|" + strings.Join(mk, ";")
}

// matEntry is one materialized aggregate: the pattern's group states
// at a specific DB version. Entries are immutable after construction
// and shared by concurrent queries (absorbing or finalising cells
// never writes to them).
type matEntry struct {
	pat *aggPattern
	// cells are the kernel's pre-finalisation states, one cell per
	// group (keys in pat.groupBy order, then one state-column set per
	// pat.measures), in the first-seen order the fold produced, which a
	// merge of them keeps: a coarser group's first cell is its first
	// row's. order lists the cells sorted by their keys (Cells.Order):
	// at the entry's own granularity the filter reads the cells in that
	// order, so the kept cells reach the answer tail sorted, where
	// ranking them finds them in order.
	cells   engine.Cells
	order   []int32
	version uint64
	// srcRows records the row count of every source table the entry
	// was built from: the fact and the dimensions its plan joined. The
	// key set is the entry's join set — answer() serves only queries
	// whose plan joined the same tables. The counts guard what the DB
	// version does not: the version catches every structural change
	// (create/replace/drop/attach, one bump per ETL run), but a direct
	// Table.Insert outside a run does NOT bump it — row counts do
	// change, so answer() re-checks them (the same guard the build-side
	// cache keys on).
	srcRows map[string]int64
	gIdx    map[string]int // group column → position in a group key
	mIdx    map[string]int // measure key → position among the measures
}

// MatAggStats is the admin/stats view of a store.
type MatAggStats struct {
	TopK             int   `json:"top_k"`
	Patterns         int   `json:"patterns"`
	Materialized     int   `json:"materialized"`
	MaterializedRows int64 `json:"materialized_rows"`
	Recorded         int64 `json:"recorded"`
	// Hits are queries answered at an entry's own granularity, Rewrites
	// queries merged from a finer entry, Misses covered by no entry.
	Hits               int64  `json:"hits"`
	Rewrites           int64  `json:"rewrites"`
	Misses             int64  `json:"misses"`
	LastRefreshVersion uint64 `json:"last_refresh_version"`
	LastRefreshError   string `json:"last_refresh_error,omitempty"`
	// The dimension cache's counts (DimCacheCounts): the cache belongs to
	// the engine, and the serving layer repeats its counts here.
	DimCacheHits   int64 `json:"dim_cache_hits"`
	DimCacheMisses int64 `json:"dim_cache_misses"`
}

// MatAgg is a materialized-aggregate store. It is safe for concurrent
// use and shared across engine rebuilds: attach it with
// Engine.WithMatAgg.
type MatAgg struct {
	mu       sync.Mutex
	topK     int
	patterns map[string]*aggPattern
	entries  map[string]*matEntry

	recorded, hits, rewrites, misses int64
	lastRefreshVersion               uint64
	lastRefreshErr                   string
	// gen counts wholesale invalidations; a Refresh started before an
	// Invalidate must not install its (old-design) entries afterwards.
	gen uint64
}

// NewMatAgg builds a store materializing up to topK aggregates per
// Refresh (topK <= 0 defaults to 8).
func NewMatAgg(topK int) *MatAgg {
	if topK <= 0 {
		topK = 8
	}
	return &MatAgg{
		topK:     topK,
		patterns: map[string]*aggPattern{},
		entries:  map[string]*matEntry{},
	}
}

// Invalidate drops every materialized aggregate and recorded pattern.
// Call it when the unified design changes (a data republish needs
// nothing: versions diverge by themselves).
func (m *MatAgg) Invalidate() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.patterns = map[string]*aggPattern{}
	m.entries = map[string]*matEntry{}
	m.gen++
	m.mu.Unlock()
}

// Stats reports the store's counters.
func (m *MatAgg) Stats() MatAggStats {
	if m == nil {
		return MatAggStats{}
	}
	m.mu.Lock()
	st := MatAggStats{
		TopK:               m.topK,
		Patterns:           len(m.patterns),
		Materialized:       len(m.entries),
		Recorded:           m.recorded,
		Hits:               m.hits,
		Rewrites:           m.rewrites,
		Misses:             m.misses,
		LastRefreshVersion: m.lastRefreshVersion,
		LastRefreshError:   m.lastRefreshErr,
	}
	for _, en := range m.entries {
		st.MaterializedRows += int64(en.cells.N)
	}
	m.mu.Unlock()
	return st
}

// patternOf canonicalizes a plan into its query-log pattern: the
// resolved group-by set widened by the filter identifiers, plus the
// deduplicated set of the aggregates it folds — a dice's hidden carat
// ones included, so a diced query's pattern is its undiced cube plus
// the carat measures.
func patternOf(p *starPlan) (groupBy []string, measures []aggMeasure) {
	set := map[string]bool{}
	for _, g := range p.groupBy {
		set[g] = true
	}
	if p.filter != nil {
		for _, id := range expr.Idents(p.filter) {
			set[id] = true
		}
	}
	for g := range set {
		groupBy = append(groupBy, g)
	}
	sort.Strings(groupBy)
	seen := map[string]bool{}
	for _, a := range p.aggs {
		am := aggMeasure{Func: a.Func, Col: a.Col}
		if seen[am.key()] {
			continue
		}
		seen[am.key()] = true
		measures = append(measures, am)
	}
	sort.Slice(measures, func(i, j int) bool { return measures[i].key() < measures[j].key() })
	return groupBy, measures
}

// record logs one planned query. The pattern is canonicalized before
// the store lock is taken — only the weight bump serializes, keeping
// contention off the serving hot path. Against a full log a new pattern
// is counted and dropped; Refresh makes the room (see ageing).
func (m *MatAgg) record(p *starPlan) {
	groupBy, measures := patternOf(p)
	key := patternKey(p.fact.Name, groupBy, measures)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recorded++
	if pat, ok := m.patterns[key]; ok {
		pat.weight++
	} else if len(m.patterns) < maxPatterns {
		m.patterns[key] = &aggPattern{key: key, fact: p.fact.Name, groupBy: groupBy, measures: measures, weight: 1}
	}
}

// RefreshReport summarises one Refresh.
type RefreshReport struct {
	Materialized int
	Dropped      int // patterns that no longer plan (dropped from the log)
}

// Refresh materializes the logged patterns hottest first, each from its
// own snapshot of the deployed tables, until topK entries stand, and
// atomically swaps the new entry set in. It is also where the log ages.
// A pattern that no longer plans against the deployed design (e.g.
// after a lifecycle change removed a column) is dropped from the log
// and the next one takes its slot. Concurrent queries keep answering
// from the previous entries — the per-entry version check makes any
// stale entry unservable regardless.
func (m *MatAgg) Refresh(e *Engine) (RefreshReport, error) {
	var rep RefreshReport
	if m == nil || e == nil {
		return rep, nil
	}
	// Snapshot (pattern, weight) and age the log under one hold of the
	// lock: weights keep being bumped by concurrent queries while we
	// sort and build.
	type ranked struct {
		pat    *aggPattern
		weight float64
	}
	m.mu.Lock()
	startGen := m.gen
	topK := m.topK
	snapshot := make([]ranked, 0, len(m.patterns))
	for key, pat := range m.patterns {
		snapshot = append(snapshot, ranked{pat, pat.weight})
		if pat.weight *= ageing; pat.weight < 1 {
			delete(m.patterns, key)
		}
	}
	m.mu.Unlock()
	sort.Slice(snapshot, func(i, j int) bool {
		if snapshot[i].weight != snapshot[j].weight {
			return snapshot[i].weight > snapshot[j].weight
		}
		return snapshot[i].pat.key < snapshot[j].pat.key
	})
	entries := make(map[string]*matEntry, topK)
	var firstErr error
	// The refresh is current as of the version it started against even
	// when it builds nothing (an empty log, or one whose every pattern
	// stopped planning): the previous version's entries are released and
	// LastRefreshVersion advances all the same.
	maxVersion := e.db.Version()
	for _, r := range snapshot {
		if len(entries) == topK {
			break
		}
		en, err := m.build(e, r.pat)
		if err != nil {
			rep.Dropped++
			if firstErr == nil {
				firstErr = fmt.Errorf("matagg: pattern %s: %w", r.pat.key, err)
			}
			m.mu.Lock()
			delete(m.patterns, r.pat.key)
			m.mu.Unlock()
			continue
		}
		entries[r.pat.key] = en
		maxVersion = max(maxVersion, en.version)
	}
	rep.Materialized = len(entries)
	m.mu.Lock()
	// Install only when still current: an Invalidate (design change)
	// since we started means these entries were built from the old
	// design, and a concurrent Refresh that already installed entries
	// at a NEWER warehouse version must not be overwritten with
	// stale-version ones (which would be unservable and silently
	// degrade every query to the base path until the next run).
	if m.gen == startGen && maxVersion >= m.lastRefreshVersion {
		m.entries = entries
		m.lastRefreshVersion = maxVersion
		if firstErr != nil {
			m.lastRefreshErr = firstErr.Error()
		} else {
			m.lastRefreshErr = ""
		}
	} else {
		rep.Materialized = 0
	}
	m.mu.Unlock()
	return rep, firstErr
}

// build materializes one pattern: plan → snapshot → the partial-answer
// body (foldOn, Partials) → group states keyed by the snapshot version,
// plus their sort order.
func (m *MatAgg) build(e *Engine, pat *aggPattern) (*matEntry, error) {
	q := CubeQuery{Fact: pat.fact, GroupBy: append([]string(nil), pat.groupBy...)}
	// The entry keeps states, not named columns: a measure's output name
	// is only its position, in a form no schema column takes.
	for i, am := range pat.measures {
		q.Measures = append(q.Measures, MeasureSpec{Out: fmt.Sprintf("#%d", i), Func: am.Func, Col: am.Col})
	}
	p, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	snap, err := e.db.Snapshot(p.tables...)
	if err != nil {
		return nil, err
	}
	agg, err := e.foldOn(context.Background(), p, snap)
	if err != nil {
		return nil, err
	}
	cells := agg.Partials()
	en := &matEntry{
		pat:     pat,
		cells:   cells,
		order:   cells.Order(),
		version: snap.Version(),
		srcRows: make(map[string]int64, len(p.tables)),
		gIdx:    make(map[string]int, len(pat.groupBy)),
		mIdx:    make(map[string]int, len(pat.measures)),
	}
	for _, name := range p.tables {
		view, ok := snap.Table(name)
		if !ok {
			return nil, fmt.Errorf("snapshot lacks table %q", name)
		}
		en.srcRows[name] = view.NumRows()
	}
	for i, g := range pat.groupBy {
		en.gIdx[g] = i
	}
	for i, am := range pat.measures {
		en.mIdx[am.key()] = i
	}
	return en, nil
}
