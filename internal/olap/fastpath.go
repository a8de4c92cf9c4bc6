package olap

// The vectorized fast path. A query runs in two phases over one
// storage snapshot, on typed column vectors throughout (storage.Vector:
// []int64, []float64, dictionary codes) — an expr.Value is built per
// dictionary entry, per group and per filter scratch row, never per
// fact row on the way to an aggregate:
//
//	build  each joined dimension is scanned into an engine.JoinIndex —
//	       the join index the ETL executor builds too: its attribute
//	       columns as vectors, and an index from join key to row number
//	       (an array when the keys are dense integers, as surrogate keys
//	       are; a hash map otherwise). The engine's dimCache keeps it for
//	       every later query at the same warehouse version, with the
//	       group codes of the columns queries group by (GroupCodes).
//	probe  the fact streams a chunk (a page) at a time through
//	       probeStar: foreign-key vectors → per join, a vector of
//	       dimension row numbers → the selection of joined rows (fan-out
//	       expanded) → filter (engine.VectorFilter) → a starChunk of
//	       (fact position, dimension row numbers), whose selected
//	       columns the aggregate fold hands engine.HashAggregator.AddVectors
//	       (a dimension's group column with its codes). Every query no
//	       materialized aggregate serves folds this way (foldOn), and
//	       answerPlanned cuts its answer, or its partial, from the
//	       folded cells.

import (
	"context"
	"fmt"

	"quarry/internal/engine"
	"quarry/internal/storage"
)

// columnsOf resolves column names to a view's physical positions.
func columnsOf(view *storage.TableView, names ...string) ([]int, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		j, ok := view.ColumnIndex(name)
		if !ok {
			return nil, fmt.Errorf("olap: deployed table %q lacks column %q", view.Name(), name)
		}
		idx[i] = j
	}
	return idx, nil
}

// buildDimSide scans one dimension into its build side: the join's
// buildCols, keyed on the reference column. The scan pushes
// the dimension's filter conjuncts into the cursor: pruned pages hold
// only rows the post-join filter would reject, so dropping them from
// the (inner) join's build side removes no surviving row.
func buildDimSide(ctx context.Context, view *storage.TableView, sj *starJoin) (*engine.JoinIndex, error) {
	phys, err := columnsOf(view, append(append([]string(nil), sj.buildCols...), sj.refCol)...)
	if err != nil {
		return nil, err
	}
	d := engine.NewJoinIndex(len(sj.buildCols), 1, int(view.NumRows()))
	vecs := make([]*storage.Vector, len(phys))
	cur := view.Cursor(sj.preds)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := cur.NextVectors(phys, vecs)
		if n == 0 {
			break
		}
		d.Add(n, vecs[:len(sj.buildCols)], []*storage.Vector{vecs[len(sj.buildCols)]})
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("olap: dimension table %q: %w", view.Name(), err)
	}
	return d, nil
}

// buildDimSides runs the build phase: one side per joined dimension,
// taken from the engine's dimCache when a query at the same version
// built it already.
func (e *Engine) buildDimSides(ctx context.Context, p *starPlan, snap *storage.Snapshot) ([]*engine.JoinIndex, error) {
	sides := make([]*engine.JoinIndex, len(p.joins))
	for i, sj := range p.joins {
		view, ok := snap.Table(sj.def.Name)
		if !ok {
			return nil, fmt.Errorf("olap: snapshot lacks dimension table %q", sj.def.Name)
		}
		key := dimKey(sj, view.NumRows())
		if d, ok := e.dims.get(snap.Version(), key); ok {
			sides[i] = d
			continue
		}
		d, err := buildDimSide(ctx, view, sj)
		if err != nil {
			return nil, err
		}
		e.dims.put(snap.Version(), key, d)
		sides[i] = d
	}
	return sides, nil
}

// starChunk is what the probe emits for one fact chunk: the joined
// rows that passed the filter, each as its position in the chunk's
// fact vectors and the dimension row it joined per join. It is valid
// until emit returns.
type starChunk struct {
	p     *starPlan
	sides []*engine.JoinIndex
	fact  []*storage.Vector // by position in p.cols; nil for dimension columns
	pos   []int32
	dim   [][]int32
}

// column returns plan column i: the vector holding it and, for every
// row of the chunk, its row in that vector.
func (c *starChunk) column(i int) engine.Column {
	pc := c.p.cols[i]
	if pc.join < 0 {
		return engine.Column{Vec: c.fact[i], Sel: c.pos}
	}
	return engine.Column{Vec: c.sides[pc.join].Cols[pc.col], Sel: c.dim[pc.join]}
}

// probeStar runs the probe phase, the one loop behind Query,
// QueryPartial, the aggregate refresh and the dice: stream the fact a
// chunk at a time, resolve each foreign-key vector to a vector of
// dimension row numbers, select the joined rows, filter them, and hand
// the chunk to emit. Row order is the joined order of the oracle's
// flow: fact order, and for a fact row matching several dimension
// rows, build insertion order with the last join varying fastest.
//
// Cancellation is checked at every chunk boundary — the places a query
// spends its time — so an abandoned query releases its resources
// promptly.
func (e *Engine) probeStar(ctx context.Context, p *starPlan, snap *storage.Snapshot, sides []*engine.JoinIndex, emit func(*starChunk) error) error {
	factView, ok := snap.Table(p.fact.Name)
	if !ok {
		return fmt.Errorf("olap: snapshot lacks fact table %q", p.fact.Name)
	}
	// The fact columns to read, by physical position: each join's key,
	// then the fact columns among p.cols.
	var names []string
	for _, sj := range p.joins {
		names = append(names, sj.fkCol)
	}
	var factCols []int // positions in p.cols
	for i, c := range p.cols {
		if c.join < 0 {
			names = append(names, p.fact.Columns[c.col].Name)
			factCols = append(factCols, i)
		}
	}
	phys, err := columnsOf(factView, names...)
	if err != nil {
		return err
	}
	var (
		vecs   = make([]*storage.Vector, len(phys))
		chunk  = &starChunk{p: p, sides: sides, fact: make([]*storage.Vector, len(p.cols))}
		probes = make([]*engine.JoinProbe, len(sides))
		match  = make([]int32, len(sides)) // current match per join, expanding a fan-out
		// The joined rows of a chunk as (fact position, dimension row per
		// join): sel before fan-out, wide after.
		sel, wide struct {
			pos []int32
			dim [][]int32
		}
		fanOut bool
	)
	sel.dim, wide.dim = make([][]int32, len(sides)), make([][]int32, len(sides))
	for k, s := range sides {
		probes[k] = s.Probe()
		fanOut = fanOut || s.FansOut()
	}
	var (
		filter *engine.VectorFilter
		cols   []engine.Column // the chunk's plan columns, for the filter
		passed []int32
	)
	if p.filter != nil {
		filter = engine.NewVectorFilter(p.filter, p.index)
		cols = make([]engine.Column, len(p.cols))
	}
	// The cursor skips fact pages that the pushed-down conjuncts' zone
	// maps prove empty of qualifying rows.
	factCur := factView.Cursor(p.factPreds)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := factCur.NextVectors(phys, vecs)
		if n == 0 {
			return nil
		}
		for j, i := range factCols {
			chunk.fact[i] = vecs[len(sides)+j]
		}
		// Resolve each join's keys to first matches, then keep, in place,
		// the fact rows every join matched.
		for k, probe := range probes {
			sel.dim[k] = engine.Sized(sel.dim[k], n)
			probe.Lookup(n, vecs[k:k+1], sel.dim[k])
		}
		sel.pos = engine.Sized(sel.pos, n)
		kept := 0
		if everyRowMatched(sel.dim, n) { // as foreign keys do: nothing to drop
			for i := range sel.pos {
				sel.pos[i] = int32(i)
			}
			kept = n
		}
	rows:
		for i := kept; i < n; i++ {
			for _, matched := range sel.dim {
				if matched[i] < 0 {
					continue rows
				}
			}
			sel.pos[kept] = int32(i)
			for _, matched := range sel.dim {
				matched[kept] = matched[i]
			}
			kept++
		}
		sel.pos = sel.pos[:kept]
		for k := range sel.dim {
			sel.dim[k] = sel.dim[k][:kept]
		}
		chunk.pos, chunk.dim = sel.pos, sel.dim
		if fanOut {
			// Some key repeats in some dimension: expand each selected
			// row into every combination of its matches, the last join
			// varying fastest.
			wide.pos = wide.pos[:0]
			for k := range sides {
				wide.dim[k] = wide.dim[k][:0]
			}
			for j, i := range sel.pos {
				for k := range sides {
					match[k] = sel.dim[k][j]
				}
				for {
					wide.pos = append(wide.pos, i)
					for k := range sides {
						wide.dim[k] = append(wide.dim[k], match[k])
					}
					k := len(sides) - 1
					for ; k >= 0; k-- {
						if match[k] = sides[k].After(match[k]); match[k] >= 0 {
							break
						}
						match[k] = sel.dim[k][j]
					}
					if k < 0 {
						break
					}
				}
			}
			chunk.pos, chunk.dim = wide.pos, wide.dim
		}
		if filter != nil {
			for i := range cols {
				cols[i] = chunk.column(i)
			}
			if passed, err = filter.Apply(len(chunk.pos), cols, passed[:0]); err != nil {
				return err
			}
			chunk.compact(passed)
		}
		if err := emit(chunk); err != nil {
			return err
		}
	}
}

// everyRowMatched reports whether each of the n fact rows found a
// dimension row in every join.
func everyRowMatched(matches [][]int32, n int) bool {
	for _, matched := range matches {
		for _, m := range matched[:n] {
			if m < 0 {
				return false
			}
		}
	}
	return true
}

// compact keeps the chunk's rows kept names, in order.
func (c *starChunk) compact(kept []int32) {
	for i, j := range kept {
		c.pos[i] = c.pos[j]
		for k := range c.dim {
			c.dim[k][i] = c.dim[k][j]
		}
	}
	c.pos = c.pos[:len(kept)]
	for k := range c.dim {
		c.dim[k] = c.dim[k][:len(kept)]
	}
}

// foldOn runs a plan's build and probe phases over a snapshot: each
// chunk's group and aggregate columns go to the kernel's vector entry.
// It returns the kernel holding the folded cube over the plan's
// aggregates, a dice's hidden carat ones included. Every answer that no
// materialized aggregate serves is cut from it (answerPlanned), and
// every materialized aggregate is its cells (Partials), so all of them
// hold the states a single node folding the same rows would finalise.
func (e *Engine) foldOn(ctx context.Context, p *starPlan, snap *storage.Snapshot) (*engine.HashAggregator, error) {
	sides, err := e.buildDimSides(ctx, p, snap)
	if err != nil {
		return nil, err
	}
	agg, err := engine.NewHashAggregator(p.groupIdx, p.aggs, p.aggIdx)
	if err != nil {
		return nil, err
	}
	groups, measures := make([]engine.Column, len(p.groupIdx)), make([]engine.Column, len(p.aggs))
	err = e.probeStar(ctx, p, snap, sides, func(c *starChunk) error {
		for g, ci := range p.groupIdx {
			groups[g] = c.column(ci)
			if pc := p.cols[ci]; pc.join >= 0 { // coded once per dimension row
				groups[g].Group = c.sides[pc.join].GroupCodes(pc.col)
			}
		}
		for i, ci := range p.aggIdx {
			if ci >= 0 {
				measures[i] = c.column(ci)
			}
		}
		return agg.AddVectors(len(c.pos), groups, measures)
	})
	if err != nil {
		return nil, err
	}
	return agg, nil
}
