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
// own state columns. MergeCells Absorbs any number of such exports into
// a fresh kernel, whose states are value-identical to what a single
// node folding all rows would hold — COUNT/int-SUM by integer addition
// (wrapping, like the fold: whether an int SUM overflowed is decided at
// finalisation, from the whole multiset), float SUM by exact expansion
// merge (FloatSum), MIN/MAX by the same Compare the fold uses — and
// Answer finalises them exactly once, so the merged answer is
// byte-identical to the single-node one by construction. Absorb finds a
// cell's group the way AddVectors finds a row's (groupsOf), so the fold
// and the merge share every grouping rule.

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
	n, k := o.groups, len(o.gIdx)
	o.settle()
	keys := make([]*storage.Vector, k)
	vals := make([]expr.Value, n)
	for j := range keys {
		for g := range vals {
			vals[g] = o.value(g, j)
		}
		keys[j] = keyVector(vals)
	}
	return Cells{N: n, Keys: keys, States: o.cols}
}

// keyVector is a group column's key values as a vector: ints, floats
// and bools typed, as storage.VectorOf makes them; strings, and the
// mixed form, coded over a dictionary of one entry per distinct
// non-NULL value, in first-seen order — by representation, not by
// identity: one column of cells may hold Int 3 in one and Float 3.0 in
// another. Key values are canonical, so a value's identity and kind
// name its representation.
func keyVector(vals []expr.Value) *storage.Vector {
	kind := storage.KindOf(vals)
	if kind != expr.KindString && kind != expr.KindNull {
		return storage.VectorOf(vals)
	}
	type rep struct {
		key  expr.Key
		kind expr.Kind
	}
	// Sized for every value distinct, as VectorOf sizes its dictionary,
	// so that neither grows on the way.
	v := &storage.Vector{Kind: kind, Codes: make([]uint32, len(vals)), Dict: make([]expr.Value, 0, len(vals))}
	entries := make(map[rep]uint32, len(vals))
	for g, x := range vals {
		if x.IsNull() {
			setNull(v, g, len(vals))
			continue
		}
		e, ok := entries[rep{x.Key(), x.Kind()}]
		if !ok {
			e = uint32(len(v.Dict))
			entries[rep{x.Key(), x.Kind()}] = e
			v.Dict = append(v.Dict, x)
		}
		v.Codes[g] = e
	}
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
	at := c.at()
	gs := o.groupsOf(len(at), keys)
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

// at lists the cells c holds: those Pick picked, or every one.
func (c Cells) at() []int32 {
	if c.picked {
		return c.sel
	}
	return identity(nil, c.N)
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
	sel := c.at()
	if groupCols == 0 && len(sel) == 0 {
		return newAggOp(aggs, nil, nil).result()
	}
	return finalRows(groupCols, aggs, c.States, sel, func(row []expr.Value, g int32) {
		for j := range row {
			row[j] = c.Keys[j].Value(int(g))
		}
	})
}

// MergeCells absorbs the parts, in argument order, into a fresh
// aggregator over groupCols key columns and aggs (only Func is read):
// the merge of partial answers — a fleet's shards, or the cells of a
// finer materialized aggregate — whose Answer is the one a single node
// folding every row would give.
func MergeCells(groupCols int, aggs []xlm.AggSpec, parts ...Cells) (*HashAggregator, error) {
	// Aggregate input positions are unused on the absorb path, so 0
	// stands in for every one of them.
	agg, err := NewHashAggregator(Leading(groupCols), aggs, make([]int, len(aggs)))
	if err != nil {
		return nil, err
	}
	for i, c := range parts {
		if err := agg.Absorb(c); err != nil {
			return nil, fmt.Errorf("partial %d: %w", i, err)
		}
	}
	return agg, nil
}

// Answer is the one tail every answer source ends in — the fast path,
// both arms of the materialized-aggregate store, the shard gather. A
// dice d cuts its diamond out of the cells; the cells, every one or the
// diamond's, are finalised (FinalizeCells) through the first aggregates
// of aggs, without the hidden carat ones a dice reads, and the rows are
// sorted by their group columns, as every executor sorts its rows.
// aggs are the aggregates whose states the cells hold.
func (c Cells) Answer(aggs []xlm.AggSpec, d *Dice) ([][]expr.Value, error) {
	if d != nil {
		live, err := d.cut(c)
		if err != nil {
			return nil, err
		}
		c, aggs = c.Pick(live), aggs[:len(aggs)-len(d.CaratFuncs())]
	}
	rows, err := FinalizeCells(len(c.Keys), aggs, c)
	return sorted(len(c.Keys), rows, err)
}

// Answer is the aggregator's answer: Cells.Answer over its Partials
// when d dices it. Undiced, it finalises straight from the groups' key
// rows (Finalize), which costs no key vector, and sorts alike.
func (a *HashAggregator) Answer(d *Dice) ([][]expr.Value, error) {
	if d != nil {
		return a.Partials().Answer(a.op.aggs, d)
	}
	rows, err := a.Finalize()
	return sorted(len(a.op.gIdx), rows, err)
}

// sorted sorts rows by their first k columns.
func sorted(k int, rows [][]expr.Value, err error) ([][]expr.Value, error) {
	if err != nil {
		return nil, err
	}
	return SortRowsBy(rows, Leading(k)), nil
}

// Leading returns the positions 0..n-1: the group columns of a result
// row or of a group key.
func Leading(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Dice is a diamond dice (Webb, Kaser, Lemire: "Diamond Dicing"; and
// "Pruning Attribute Values From Data Cubes with Diamond Dicing") over
// a cube's cells: the diamond is the maximal subcube in which every
// remaining value (slice) of every diced group column has a carat —
// COUNT of rows, or SUM of a non-negative column — at least its
// threshold. It is cut by pruning slices below threshold until a
// fixpoint, which a monotone carat makes unique and independent of
// the pruning order. A carat is the exact sum (FloatSum) of its rows'
// contributions, rounded once, so the diamond is a function of the
// cells, not of the rows' order or of how they were partitioned before
// their cells merged.
type Dice struct {
	Pos        []int     // the diced group columns' positions
	Thresholds []float64 // one per position
	Carat      string    // the SUM carat's column; "" for a COUNT carat
}

// CaratFuncs are the functions of the hidden aggregates a diced fold
// carries after the query's own, which the dice reads its carats from:
// COUNT(*) for a COUNT carat; for a SUM carat AVG of the column, whose
// state holds the exact sum (NaN when a value is NaN) and never fails
// finalisation, and MIN, negative exactly when some value is (NaN when
// every value is).
func (d *Dice) CaratFuncs() []string {
	if d.Carat == "" {
		return []string{"COUNT"}
	}
	return []string{"AVG", "MIN"}
}

// CheckCarat fails the query when v, an input of a SUM carat, is below
// zero or NaN: pruning a row could raise such a carat, so the fixpoint
// would depend on the pruning order.
func (d *Dice) CheckCarat(v expr.Value) error {
	if f, ok := v.AsFloat(); ok && !(f >= 0) {
		return fmt.Errorf("olap: dice SUM carat over %q requires non-negative values", d.Carat)
	}
	return nil
}

// Check runs CheckCarat over the inputs of a SUM carat's cells: their
// hidden MIN, or their exact sum when it is NaN (an input was; the MIN
// is NaN only when every input is). A cell fails it exactly when a row
// behind it would, so a fleet's shards, each checking its own cells,
// fail where a single node does.
func (d *Dice) Check(c Cells) error {
	if d.Carat == "" {
		return nil
	}
	sums, mins := &c.States[len(c.States)-2], &c.States[len(c.States)-1]
	for _, g := range c.at() {
		v := mins.Mins[g]
		if s := sums.Sums[g].Round(); s != s {
			v = expr.Float(s)
		}
		if err := d.CheckCarat(v); err != nil {
			return err
		}
	}
	return nil
}

// cut cuts the diamond d out of the cells c holds — every cell, or the
// cells Pick picked — and returns the survivors, in that order. The
// cells hold the query's aggregates followed by the hidden ones
// (CaratFuncs): a cell's carat is read from the hidden states and its
// slices from the key vectors, where a coded key column names a slice
// once per dictionary entry, not per cell (Partials codes each distinct
// value once). A worklist re-examines only the slices that lost a cell
// since their last check, each time summing its live cells' exact
// carats afresh, never by subtraction.
func (d *Dice) cut(c Cells) ([]int32, error) {
	if err := d.Check(c); err != nil {
		return nil, err
	}
	type slice struct {
		dim          int   // position in d.Pos
		cells        []int // positions in at
		dead, queued bool
	}
	// A COUNT carat is the hidden COUNT(*); a SUM carat the exact sum
	// the hidden AVG keeps.
	at, nd := c.at(), len(d.Pos)
	var carats []FloatSum
	if d.Carat == "" {
		carats = make([]FloatSum, c.N)
		for g, n := range c.States[len(c.States)-1].Counts {
			carats[g].Add(float64(n))
		}
	} else {
		carats = c.States[len(c.States)-2].Sums
	}
	var all []slice
	var queue []int                       // every slice starts due for a check
	of := make([]int, len(at)*nd)         // cell at[i]'s slice in diced column j is all[of[i*nd+j]]
	byKey := make([]map[expr.Key]int, nd) // a slice is one value of its column: its identity
	for j := range byKey {
		byKey[j] = map[expr.Key]int{}
	}
	named := func(j int, v expr.Value) int {
		k := v.Key()
		s, ok := byKey[j][k]
		if !ok {
			s = len(all)
			byKey[j][k] = s
			all = append(all, slice{dim: j, queued: true})
			queue = append(queue, s)
		}
		return s
	}
	entries := make([][]int, nd) // per coded diced column: each dictionary entry's slice + 1, 0 until named
	for j, p := range d.Pos {
		if k := c.Keys[p]; k.Coded() {
			entries[j] = make([]int, len(k.Dict))
		}
	}
	for i, g := range at {
		for j, p := range d.Pos {
			var s int
			switch k := c.Keys[p]; {
			case entries[j] != nil && !k.IsNull(int(g)):
				e := &entries[j][k.Codes[g]]
				if *e == 0 {
					*e = named(j, k.Dict[k.Codes[g]]) + 1
				}
				s = *e - 1
			default:
				s = named(j, k.Value(int(g)))
			}
			all[s].cells = append(all[s].cells, i)
			of[i*nd+j] = s
		}
	}
	pruned := make([]bool, len(at))
	for len(queue) > 0 {
		s := &all[queue[0]]
		queue = queue[1:]
		s.queued = false
		var carat FloatSum
		for _, i := range s.cells {
			if !pruned[i] {
				carat.Merge(carats[at[i]])
			}
		}
		if carat.Round() >= d.Thresholds[s.dim] {
			continue
		}
		s.dead = true
		for _, i := range s.cells {
			if pruned[i] {
				continue
			}
			pruned[i] = true
			for _, o := range of[i*nd : (i+1)*nd] {
				if !all[o].dead && !all[o].queued {
					all[o].queued = true
					queue = append(queue, o)
				}
			}
		}
	}
	var sel []int32
	for i, g := range at {
		if !pruned[i] {
			sel = append(sel, g)
		}
	}
	return sel, nil
}
