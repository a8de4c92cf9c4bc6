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
// nil, and the float sums are settled into Sums. Absorb and
// FinalizeCells read every cell, or, once Pick narrowed the set, the
// cells it picked.
type Cells struct {
	N      int
	Keys   []*storage.Vector // one per group column
	States []StateCols       // one per aggregate
	sel    []int32           // the cells Pick picked, when picked
	picked bool
}

// Pick narrows the set to the cells sel picks, in sel's order, without
// copying them: Absorb and FinalizeCells read cell sel[i] of the
// columns in place, and N still counts the columns' entries. A nil or
// empty sel picks no cell.
func (c Cells) Pick(sel []int32) Cells {
	c.sel, c.picked = sel, true
	return c
}

// Picked reports whether Pick narrowed the set.
func (c Cells) Picked() bool { return c.picked }

// Partials exports the aggregator's current group states in group
// (first-seen) order. A global aggregate that saw zero rows exports
// zero cells: the zero-rows row (COUNT 0, NULL sums) is a finalisation
// artifact and is injected exactly once, by the merge side's Result.
// The state columns are the aggregator's own, not a copy: the result
// is valid until the aggregator next changes. A string or mixed key
// column is coded once per distinct value (keyVector), so whoever
// reads the cells — a filter, a merge's coder, the dice — does a
// value's work once.
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
		keys[j] = keyVector(vals)
	}
	return Cells{N: n, Keys: keys, States: o.cols}
}

// keyVector is a group column's key values as a vector: ints, floats
// and bools typed, as storage.VectorOf makes them; strings, and the
// mixed form, coded over a dictionary of one entry per distinct
// non-NULL value, in first-seen order by dictCoder's rules (ints by
// value, floats by bit pattern, strings by content, each kind apart).
func keyVector(vals []expr.Value) *storage.Vector {
	kind := storage.KindOf(vals)
	if kind != expr.KindString && kind != expr.KindNull {
		return storage.VectorOf(vals)
	}
	v := &storage.Vector{Kind: kind, Codes: make([]uint32, len(vals))}
	// Sized for every value distinct, as VectorOf sizes its dictionary,
	// so that neither grows on the way.
	coder := dictCoder{dict: make([]expr.Value, 0, len(vals))}
	if kind == expr.KindString {
		coder.strs = make(map[string]uint32, len(vals))
	}
	for g, x := range vals {
		if !x.IsNull() {
			v.Codes[g] = coder.value(x)
			continue
		}
		if v.Nulls == nil {
			v.Nulls = make([]uint64, (len(vals)+63)/64)
		}
		v.Nulls[g>>6] |= 1 << (uint(g) & 63)
	}
	v.Dict = coder.dict
	return v
}

// Absorb merges exported cells into this aggregator's running states,
// as if the rows behind them had been Added here: every cell, or the
// cells Pick picked, read in place. It refuses cells whose key or
// state columns, among those the aggregates read, do not all hold N
// entries or whose selection reaches past them; then it resolves the
// cells' key tuples to groups the way AddVectors resolves rows — new
// groups are created in absorption order, so absorbing shard partials
// in shard-index order gives a deterministic (if arbitrary) pre-sort
// emission order; callers that need a canonical order sort the
// finalised rows, exactly like the single-node paths do.
func (a *HashAggregator) Absorb(c Cells) error {
	o := a.op
	fits := c.N >= 0 && len(c.Keys) == len(o.gIdx) && len(c.States) == len(o.aggs)
	keys := make([]Column, len(c.Keys))
	for j, k := range c.Keys {
		fits, keys[j] = fits && k.Len() == c.N, Column{Vec: k, Sel: c.sel}
	}
	for i := 0; fits && i < len(o.aggs); i++ {
		fits = c.States[i].Fits(o.aggs[i].Func, c.N)
	}
	for _, s := range c.sel {
		fits = fits && s >= 0 && int(s) < c.N
	}
	if !fits {
		return fmt.Errorf("engine: partial of %d cells in %d key and %d state columns does not fit an aggregator of %d and %d, %d entries each",
			c.N, len(c.Keys), len(c.States), len(o.gIdx), len(o.aggs), c.N)
	}
	n, at := c.N, c.sel
	if c.picked {
		n = len(at)
	} else {
		o.vec.every = identity(o.vec.every, n)
		at = o.vec.every
	}
	gs := o.groupsOf(n, keys)
	for i, spec := range o.aggs {
		dst, src := &o.cols[i], &c.States[i]
		for j, g := range gs {
			dst.Counts[g] += src.Counts[at[j]]
		}
		switch spec.Func {
		case "SUM", "AVG":
			for j, g := range gs {
				s := at[j]
				dst.IntSums[g] += src.IntSums[s]
				dst.SumIsInt[g] = dst.SumIsInt[g] && src.SumIsInt[s]
				dst.Sums[g].Merge(src.Sums[s])
			}
		// MIN/MAX merge with the fold's semantics: NULL means "no value
		// yet".
		case "MIN", "MAX":
			cur, in := dst.Maxs, src.Maxs
			if spec.Func == "MIN" {
				cur, in = dst.Mins, src.Mins
			}
			for j, g := range gs {
				if x := in[at[j]]; !x.IsNull() {
					keepExtreme(&cur[g], x, spec.Func == "MIN")
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

// FinalizeCells finalises the cells c holds — every cell, or the
// cells Pick picked, in their order — through the kernel's own
// finaliser: the first groupCols key vectors and one state-column set
// per aggregate of aggs. The cells must be distinct groups — a
// selection of one aggregator's Partials — so nothing is merged; they
// are read in place, and a cell Pick left out is never finalised, so
// its int SUM cannot fail. Like Finalize, a global aggregate
// (groupCols == 0) over no cells yields its single COUNT 0 / NULL row.
// The rows are in cell order, not sorted.
func FinalizeCells(groupCols int, aggs []xlm.AggSpec, c Cells) ([][]expr.Value, error) {
	sel := c.sel
	if !c.picked {
		sel = identity(nil, c.N)
	}
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
