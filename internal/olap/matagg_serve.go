package olap

// Materialized aggregates, read side: answer picks the entry, serve
// makes the rows.
//
// An entry answers a query only if its plan ran the query's joins —
// the same dimension tables (the planner joins a table under one key
// only, so the table set is the join set). The star join is inner and a
// dimension key may repeat, so a plan that joins one table more or less
// aggregates a different row set wherever a foreign key is NULL,
// unmatched or matched twice; with equal join sets the entry's groups
// partition exactly the rows the query would scan. Among such entries
// answer picks the COARSEST — fewest groups — whose group-by set covers
// the query's group-by and filter columns and which stores every
// measure the query asks for. The query's filter reads group keys only,
// so it commutes with aggregation: engine.VectorFilter keeps the
// entry's groups that pass it. The kept groups are then merged with
// the one algebra the tree has for partial states,
// engine.FinalizePartials — each kept
// partial projected onto the query's group-by and measures, absorbed
// into a fresh kernel, finalised and sorted once. That is what a shard
// gather does with per-shard partials, and it is byte-identical to one
// node folding the detail rows for EVERY aggregate function: COUNT and
// int SUM add, MIN/MAX keep the extreme of a total order, float SUM and
// AVG merge exact expansions (engine.FloatSum), so no function and no
// filter-widened pattern is excluded.
//
// When the entry's granularity equals the query's, the merge would
// absorb each kept group into a group of its own — so that one case
// skips it and projects the rows finalised at build instead
// (BenchmarkOLAPQuery_Materialized, a 25-group cube: ≈ 20 µs per query
// against ≈ 65 µs through the kernel, outside the CI gate's 25 %). The
// filter is the same either way; it reads the group keys of the half
// the chosen arm consumes, as vectors built with the entry.

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
		if best == nil || len(en.rows) < len(best.rows) || (len(en.rows) == len(best.rows) && en.pat.key < best.pat.key) {
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
// keeps the groups passing the filter (group-key predicates commute with
// aggregation); the kept groups, projected onto the query's group-by
// and measures, are merged by engine.FinalizePartials — the merge a
// shard gather runs, exact for every aggregate function. At the entry's
// own granularity (same) every kept group would merge into a group of
// its own, so the rows finalised at build are projected and sorted
// instead.
func (en *matEntry) serve(p *starPlan, same bool) ([][]expr.Value, error) {
	// The filter reads group keys in the order of the half the chosen arm
	// consumes, so neither arm depends on the other's order.
	n, keys := len(en.parts), en.partKeys
	if same {
		n, keys = len(en.rows), en.rowKeys
	}
	kept := make([]int32, 0, n)
	if p.filter == nil {
		for i := 0; i < n; i++ {
			kept = append(kept, int32(i))
		}
	} else {
		var err error
		if kept, err = engine.NewVectorFilter(p.filter, en.gIdx).Apply(n, keys, kept); err != nil {
			return nil, err
		}
	}
	gPos := make([]int, len(p.groupBy))
	for i, g := range p.groupBy {
		gPos[i] = en.gIdx[g]
	}
	mPos := make([]int, len(p.aggs))
	for i, a := range p.aggs {
		mPos[i] = en.mIdx[a.Func+":"+a.Col]
	}
	if same {
		out := make([][]expr.Value, len(kept))
		for k, i := range kept {
			row := make([]expr.Value, 0, len(gPos)+len(mPos))
			for _, j := range gPos {
				row = append(row, en.rows[i][j])
			}
			for _, j := range mPos {
				row = append(row, en.rows[i][len(en.gIdx)+j])
			}
			out[k] = row
		}
		return engine.SortRowsBy(out, leading(len(gPos))), nil
	}
	// One slab per kind instead of two slices per kept group; the kernel
	// copies the group values it keeps.
	parts := make([]engine.AggPartial, len(kept))
	groups := make([]expr.Value, 0, len(kept)*len(gPos))
	measures := make([]engine.MeasurePartial, 0, len(kept)*len(mPos))
	for k, i := range kept {
		for _, j := range gPos {
			groups = append(groups, en.parts[i].Group[j])
		}
		for _, j := range mPos {
			measures = append(measures, en.parts[i].Measures[j])
		}
		parts[k] = engine.AggPartial{Group: groups[len(groups)-len(gPos):], Measures: measures[len(measures)-len(mPos):]}
	}
	return engine.FinalizePartials(len(gPos), p.aggs, parts)
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
