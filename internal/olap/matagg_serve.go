package olap

// Materialized aggregates, read side: answer picks the entry, serve
// makes the rows.
//
// An entry answers a query only if its plan ran the query's joins —
// the same dimension tables (the planner joins a table under one key
// only, so the table set is the join set). The star join is inner and
// a dimension key may repeat, so a plan that joins one table more or
// less aggregates a different row set wherever a foreign key is NULL,
// unmatched or matched twice; with equal join sets the entry's groups
// partition exactly the rows the query would scan. Among such entries
// answer picks the COARSEST — fewest cells — whose group-by set
// covers the query's group-by and filter columns and which stores
// every measure the query asks for. The query's filter reads group
// keys only, so it commutes with aggregation: engine.VectorFilter
// keeps the entry's cells that pass it, reading the cells' own key
// vectors — once per dictionary entry, and Partials gave each distinct
// key value one. The kept cells are then merged with the one algebra
// the tree has for partial states, engine.FinalizePartials — the
// entry's cells projected onto the query's group-by and measures by
// picking their columns, the kept cells picked (engine.Cells.Pick)
// and absorbed in place into a fresh kernel,
// finalised and sorted once; no cell is copied. That is what a shard
// gather does with per-shard partials, and it is byte-identical to one
// node folding the detail rows for EVERY aggregate function: COUNT and
// int SUM add, MIN/MAX keep the extreme of a total order, float SUM and
// AVG merge exact expansions (engine.FloatSum), so no function and no
// filter-widened pattern is excluded.
//
// When the entry's granularity equals the query's, the merge would
// absorb each kept cell into a group of its own, so that one case
// skips it: engine.FinalizeCells finalises the kept cells in place,
// read in the order the entry sorted them at build, and the rows are
// sorted by the query's group-by (BenchmarkOLAPQuery_Materialized, a
// 25-group cube on 2 vCPUs: ≈ 16 µs per query against ≈ 53 µs through
// the merge, outside the CI gate's 25 %). An entry keeps no finalised
// row: both arms start from its cells.

import (
	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/storage"
)

// answer tries to rewrite the planned query onto the coarsest eligible
// materialized aggregate at the snapshot's version (snap covers
// p.tables). ok is false when no aggregate covers the query (or
// versions mismatch) — the caller falls back to the base-fact path.
func (m *MatAgg) answer(p *starPlan, snap *storage.Snapshot) (*Result, bool, error) {
	if m == nil || p.dice != nil {
		return nil, false, nil
	}
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
		return nil, false, nil
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
	rows, err := best.serve(p, same)
	if err != nil {
		return nil, false, err
	}
	return &Result{Columns: p.resultColumns(), Rows: rows}, true, nil
}

// serve answers the planned query from the entry. The VectorFilter
// keeps the cells passing the filter (group-key predicates commute with
// aggregation); the kept cells, projected onto the query's group-by
// and measures and read in place through their selection, are merged
// by engine.FinalizePartials — the merge a shard gather runs, exact
// for every aggregate function. At the entry's own granularity (same)
// every kept cell is a group of its own, so engine.FinalizeCells
// finalises them, in the entry's sorted order.
func (en *matEntry) serve(p *starPlan, same bool) ([][]expr.Value, error) {
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
			return nil, err
		}
		if same {
			for i, k := range kept {
				kept[i] = order[k]
			}
		}
	}
	if same {
		rows, err := engine.FinalizeCells(len(p.groupBy), p.aggs, cells.Pick(kept))
		if err != nil {
			return nil, err
		}
		return engine.SortRowsBy(rows, leading(len(p.groupBy))), nil
	}
	// The filter's survivors are read in place.
	if p.filter != nil {
		cells = cells.Pick(kept)
	}
	return engine.FinalizePartials(len(p.groupBy), p.aggs, cells)
}

// leading returns the positions 0..n-1: the group columns of a result
// row or a group key.
func leading(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
