package olap

// Materialized aggregates, read side: cells picks the entry, serve
// takes the query's cells from it.
//
// An entry answers a query only if its plan ran the query's joins —
// the same dimension tables (the planner joins a table under one key
// only, so the table set is the join set). The star join is inner and
// a dimension key may repeat, so a plan that joins one table more or
// less aggregates a different row set wherever a foreign key is NULL,
// unmatched or matched twice; with equal join sets the entry's groups
// partition exactly the rows the query would scan. Among such entries
// cells picks the COARSEST — fewest cells — whose group-by set covers
// the query's group-by and filter columns and which stores every
// aggregate the query folds, a dice's hidden carat ones included. The
// query's filter reads group keys only, so it commutes with
// aggregation: engine.VectorFilter keeps the entry's cells that pass
// it, reading the cells' own key vectors — once per dictionary entry,
// and Partials gave each distinct key value one. The kept cells,
// projected onto the query's group-by and aggregates by picking the
// entry's columns and read in place (engine.Cells.Pick), are merged
// into a fresh kernel at the query's grain (engine.MergeCells, the
// merge a shard gather runs), and the route ends as a fold's does
// (answerPlanned): the answer tail, whose dice cuts the diamond from
// the merged cells, or the merged kernel's cells shipped as a partial.
// That is byte-identical to one node folding the detail rows for EVERY
// aggregate function: COUNT and int SUM add, MIN/MAX keep the extreme
// of a total order, float SUM and AVG merge exact expansions
// (engine.FloatSum), so no function, no dice and no filter-widened
// pattern is excluded — a carat is an exact state like any other.
//
// When the entry's granularity equals the query's, the merge would
// absorb each kept cell into a group of its own, so on the query path
// that one case skips it: the tail cuts and finalises the kept cells in
// place (engine.Cells.Answer), read in the order the entry sorted them
// at build, which its ranking finds already sorted (BenchmarkOLAPQuery_Materialized,
// a 25-group cube on 2 vCPUs: ≈ 16 µs per query against ≈ 53 µs
// through the merge, outside the CI gate's 25 %). A partial still
// merges: picked cells have no frame. An entry keeps no finalised row:
// both arms start from its cells.

import (
	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/storage"
)

// cells takes the planned query's cells from the coarsest eligible
// materialized aggregate at the snapshot's version (snap covers
// p.tables): a kernel they were merged into, or, at the entry's own
// granularity unless merge is set, the entry's kept cells themselves.
// ok is false when no aggregate covers the query (or versions
// mismatch) — the caller folds the base facts.
func (m *MatAgg) cells(p *starPlan, snap *storage.Snapshot, merge bool) (agg *engine.HashAggregator, picked engine.Cells, ok bool, err error) {
	// need is what an entry must group by: the query's group columns and
	// every column its filter reads.
	need := map[string]bool{}
	for _, g := range p.groupBy {
		need[g] = true
	}
	groupCols := len(need)
	if p.filter != nil {
		for _, id := range expr.Idents(p.filter) {
			need[id] = true
		}
	}
	version := snap.Version()
	m.mu.Lock()
	var best *matEntry
entries:
	for _, en := range m.entries {
		if en.pat.fact != p.fact.Name || en.version != version {
			continue
		}
		// The entry must have run the query's joins: the same table set,
		// or its groups partition other rows than the query scans. Version
		// equality catches every structural change, but direct row appends
		// outside an engine run don't bump it, so the same loop re-checks
		// the entry's source row counts through the query's snapshot —
		// appends only grow tables, so any count drift means the entry is
		// stale and the query falls back to the base path.
		if len(en.srcRows) != len(p.tables) {
			continue
		}
		for _, name := range p.tables {
			n, joined := en.srcRows[name]
			if view, ok := snap.Table(name); !joined || !ok || view.NumRows() != n {
				continue entries
			}
		}
		for col := range need {
			if _, ok := en.gIdx[col]; !ok {
				continue entries
			}
		}
		for _, a := range p.aggs {
			if _, ok := en.mIdx[a.Func+":"+a.Col]; !ok {
				continue entries
			}
		}
		// Coarsest usable aggregate: fewest groups; deterministic
		// tie-break on the pattern key.
		if best == nil || en.cells.N < best.cells.N || (en.cells.N == best.cells.N && en.pat.key < best.pat.key) {
			best = en
		}
	}
	if best == nil {
		m.misses++
		m.mu.Unlock()
		return nil, picked, false, nil
	}
	// The entry groups by everything the query does, so equally many
	// group columns means the same granularity (column order and
	// duplicates don't matter — projection handles both).
	same := len(best.pat.groupBy) == groupCols
	if same {
		m.hits++
	} else {
		m.rewrites++
	}
	m.mu.Unlock()
	agg, picked, err = best.serve(p, same && !merge)
	return agg, picked, err == nil, err
}

// serve takes the planned query's cells from the entry. The
// VectorFilter keeps the cells passing the filter (group-key predicates
// commute with aggregation); the kept cells, projected onto the query's
// group-by and aggregates and read in place through their selection,
// are merged into a fresh kernel — unless same: the query is at the
// entry's own granularity, every kept cell is a group of its own, and
// they come back picked, in the entry's sorted order.
func (en *matEntry) serve(p *starPlan, same bool) (*engine.HashAggregator, engine.Cells, error) {
	// The projection picks the entry's columns.
	cells := engine.Cells{N: en.cells.N}
	for _, g := range p.groupBy {
		cells.Keys = append(cells.Keys, en.cells.Keys[en.gIdx[g]])
	}
	for _, a := range p.aggs {
		cells.States = append(cells.States, en.cells.States[en.mIdx[a.Func+":"+a.Col]])
	}
	// At the entry's own granularity the filter reads the keys through
	// the sort order, so the kept cells come out sorted.
	var order []int32
	if same {
		order = en.order
	}
	kept := order
	if p.filter != nil {
		cols := make([]engine.Column, len(en.cells.Keys))
		for i, k := range en.cells.Keys {
			cols[i] = engine.Column{Vec: k, Sel: order}
		}
		var err error
		if kept, err = engine.NewVectorFilter(p.filter, en.gIdx).Apply(en.cells.N, cols, make([]int32, 0, en.cells.N)); err != nil {
			return nil, cells, err
		}
		if same {
			for i, k := range kept {
				kept[i] = order[k]
			}
		}
	}
	if same || p.filter != nil {
		cells = cells.Pick(kept)
	}
	if same {
		return nil, cells, nil
	}
	agg, err := engine.MergeCells(len(p.groupBy), p.aggs, cells)
	return agg, cells, err
}
