package engine

import (
	"fmt"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// Partial aggregation: the normal aggregation kernel runs over some
// partition of the rows — a shard's fact partition on the
// scatter-gather path, the groups of a finer materialized aggregate in
// the OLAP store — and exports its pre-finalisation group states as
// columns (Cells): a key vector per group column and the aggregator's
// own state columns. FinalizePartials Absorbs any number of such
// exports into a fresh kernel and finalises (aggregationOp.result)
// exactly once, over merged states that are value-identical to what a
// single node folding all rows would hold — COUNT/int-SUM by integer
// addition (wrapping, like the fold: whether an int SUM overflowed is
// decided at finalisation, from the whole multiset), float SUM by exact
// expansion merge (FloatSum), MIN/MAX by the same Compare the fold uses
// — so the merged answer is byte-identical to the single-node one by
// construction. Absorb finds a cell's group the way AddVectors finds a
// row's (groupsOf), so the fold and the merge share every grouping
// rule.

// Cells is a set of group states in columns: cell g's key is row g of
// every key vector, and its states are entry g of each aggregate's
// StateCols. A state column the aggregate's function does not read is
// nil, and the float sums are settled into Sums.
type Cells struct {
	N      int
	Keys   []*storage.Vector // one per group column
	States []StateCols       // one per aggregate
}

// Partials exports the aggregator's current group states in group
// (first-seen) order. A global aggregate that saw zero rows exports
// zero cells: the zero-rows row (COUNT 0, NULL sums) is a finalisation
// artifact and is injected exactly once, by the merge side's Result.
// The state columns are the aggregator's own, not a copy: the result
// is valid until the aggregator next changes.
func (a *HashAggregator) Partials() Cells {
	o := a.op
	n, k := len(o.hashes), len(o.gIdx)
	o.settle()
	keys := make([]*storage.Vector, k)
	vals := make([]expr.Value, n)
	for j := range keys {
		for g := range vals {
			vals[g] = o.keys[g*k+j]
		}
		keys[j] = storage.VectorOf(vals)
	}
	return Cells{N: n, Keys: keys, States: o.cols}
}

// Select returns the cells sel picks, in sel's order: the key vectors
// gathered, the state columns holding the picked entries.
func (c Cells) Select(sel []int32) Cells {
	out := Cells{N: len(sel), States: make([]StateCols, len(c.States))}
	for _, k := range c.Keys {
		out.Keys = append(out.Keys, &storage.Vector{})
		k.Gather(out.Keys[len(out.Keys)-1], sel)
	}
	for i := range c.States {
		out.States[i] = c.States[i].pick(sel)
	}
	return out
}

// Absorb merges exported cells into this aggregator's running states,
// as if the rows behind them had been Added here. It refuses cells
// whose key or state columns, among those the aggregates read, do not
// all hold N entries; then it resolves the cells' key tuples to groups
// the way AddVectors resolves rows — new groups are created in
// absorption order, so absorbing shard partials in shard-index order
// gives a deterministic (if arbitrary) pre-sort emission order; callers
// that need a canonical order sort the finalised rows, exactly like the
// single-node paths do.
func (a *HashAggregator) Absorb(c Cells) error {
	o := a.op
	fits := c.N >= 0 && len(c.Keys) == len(o.gIdx) && len(c.States) == len(o.aggs)
	keys := make([]Column, len(c.Keys))
	for j, k := range c.Keys {
		fits, keys[j] = fits && k.Len() == c.N, Column{Vec: k}
	}
	for i := 0; fits && i < len(o.aggs); i++ {
		fits = c.States[i].Fits(o.aggs[i].Func, c.N)
	}
	if !fits {
		return fmt.Errorf("engine: partial of %d cells in %d key and %d state columns does not fit an aggregator of %d and %d, %d entries each",
			c.N, len(c.Keys), len(c.States), len(o.gIdx), len(o.aggs), c.N)
	}
	gs := o.groupsOf(c.N, keys)
	for i, spec := range o.aggs {
		dst, src := &o.cols[i], &c.States[i]
		for j, g := range gs {
			dst.Counts[g] += src.Counts[j]
		}
		switch spec.Func {
		case "SUM", "AVG":
			for j, g := range gs {
				dst.IntSums[g] += src.IntSums[j]
				dst.SumIsInt[g] = dst.SumIsInt[g] && src.SumIsInt[j]
				dst.Sums[g].Merge(src.Sums[j])
			}
		// MIN/MAX merge with the fold's semantics: NULL means "no value
		// yet".
		case "MIN", "MAX":
			cur, in := dst.Maxs, src.Maxs
			if spec.Func == "MIN" {
				cur, in = dst.Mins, src.Mins
			}
			for j, g := range gs {
				if !in[j].IsNull() {
					keepExtreme(&cur[g], in[j], spec.Func == "MIN")
				}
			}
		}
	}
	return nil
}

// Fits reports whether every state column fn reads has n entries.
func (c *StateCols) Fits(fn string, n int) bool {
	sum := fn == "SUM" || fn == "AVG"
	return len(c.Counts) == n && (!sum || len(c.IntSums) == n && len(c.SumIsInt) == n && len(c.Sums) == n) &&
		(fn != "MIN" || len(c.Mins) == n) && (fn != "MAX" || len(c.Maxs) == n)
}

// FinalizeCells finalises the cells sel picks, in sel's order, through
// the kernel's own finaliser: the first groupCols key vectors and one
// state-column set per aggregate of aggs. The cells must be distinct
// groups — a selection of one aggregator's Partials — so nothing is
// merged; they are read in place, and a cell sel does not pick is never
// finalised, so its int SUM cannot fail. Like Finalize, a global
// aggregate (groupCols == 0) over no cells yields its single COUNT 0 /
// NULL row. The rows are in sel's order, not sorted.
func FinalizeCells(groupCols int, aggs []xlm.AggSpec, c Cells, sel []int32) ([][]expr.Value, error) {
	if groupCols == 0 && len(sel) == 0 {
		return FinalizePartials(0, aggs)
	}
	return finalRows(groupCols, aggs, c.States, sel, func(row []expr.Value, g int32) {
		for j := range row {
			row[j] = c.Keys[j].Value(int(g))
		}
	})
}

// FinalizePartials merges exported partial states and finalises them
// once: a fresh kernel Absorbs every batch in argument order, Result
// finalises, and the rows are sorted by their group columns exactly
// like the single-node executors sort theirs. Each batch carries
// groupCols key columns and one state-column set per aggregate of aggs
// (only Func is read). It is the one place partial states become an
// answer — the shard gather and the materialized-aggregate store both
// end here. A global aggregate (groupCols == 0) over no cells still
// yields its single COUNT 0 / NULL row.
func FinalizePartials(groupCols int, aggs []xlm.AggSpec, parts ...Cells) ([][]expr.Value, error) {
	groupIdx := make([]int, groupCols)
	for i := range groupIdx {
		groupIdx[i] = i
	}
	// Aggregate input positions are unused on the absorb path, so 0
	// stands in for every one of them.
	agg, err := NewHashAggregator(groupIdx, aggs, make([]int, len(aggs)))
	if err != nil {
		return nil, err
	}
	for i, c := range parts {
		if err := agg.Absorb(c); err != nil {
			return nil, fmt.Errorf("partial %d: %w", i, err)
		}
	}
	rows, err := agg.Finalize()
	if err != nil {
		return nil, err
	}
	return SortRowsBy(rows, groupIdx), nil
}
