package engine

import (
	"fmt"
	"math/bits"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// The aggregation kernel's vector entry: the ETL executor and the OLAP
// fast path hand HashAggregator.AddVectors a batch column by column,
// and the kernel folds it into the same state columns Add(rows) folds
// into. Each group column is numbered by a dictCoder of the
// aggregator's own — so codes mean the same value on every batch,
// whatever dictionaries the batches arrive with — unless it comes
// numbered already (Column.Group: a join index's build column, coded
// once per build row by the same rules), and a row's group is found
// from its code tuple (codeIndex), so no group value is hashed or
// compared per row. findOrCreate, the row fold's lookup, is consulted
// once per distinct tuple, which keeps the grouping rule
// (expr.Value.Identical: NULLs group together, Int 3 with Float 3.0 but
// not Int 2⁵³+1 with Float 2⁵³, −0 with +0, every NaN with every NaN)
// and the numbering of groups in first-seen order exactly where Add has
// them. Then each aggregate folds its input column into
// its state columns at the rows' group indexes. Absorb finds the groups
// of a partial's cells through the same path (groupsOf), its key
// vectors standing for a batch's group columns; Result and Partials see
// no difference.

// GroupCodes is a group column numbered for the code index: a code per
// row and the value each code stands for, by dictCoder's bit-exact
// rules. Across the batches folded into one aggregator Dict may grow,
// but an entry never changes; equal codes mean the identical value.
type GroupCodes struct {
	Codes []uint32
	Dict  []expr.Value
}

// groupCol is one group column of a batch as the code index reads it:
// row r's code is Codes[sel[r]], or Codes[r] when sel is nil.
type groupCol struct {
	GroupCodes
	sel []int32
}

func (c *groupCol) code(r int) uint32 {
	if c.sel == nil {
		return c.Codes[r]
	}
	return c.Codes[c.sel[r]]
}

// vecState is the vector entry's scratch on an aggregationOp.
type vecState struct {
	byCode    *codeIndex // the code-tuple index over groups
	coders    []dictCoder
	coded     [][]uint32    // per group column: its coder's codes for the batch
	numbering []*GroupCodes // per group column: the Column.Group its codes came from, nil for coders
	groups    []groupCol
	rowGroups []int32           // each batch row's group
	measures  []*storage.Vector // per aggregate: its input rows
	gathered  []*storage.Vector // per aggregate: its selected input rows
}

// flatIndexBits is the widest packed key the codeIndex serves from a
// flat array (256 KiB of int32s); wider keys go through a map.
const flatIndexBits = 16

// codeIndex maps a code tuple to its group. The tuple's codes
// are packed into one integer key, each column in a bit field sized
// for twice its dictionary; when a dictionary outgrows its field the
// index is laid out again from the tuples it has registered, so the
// cost of growth is amortised like a slice's.
type codeIndex struct {
	width []uint // bits per group column; nil until the first layout
	shift []uint
	wide  bool             // the packed key does not fit 62 bits: nothing is indexed
	flat  []int32          // key → group + 1, when the key space is small
	table map[uint64]int32 // key → group, otherwise

	tuples []uint32 // registered tuples, one code per group column each
	states []int32  // the group of each registered tuple

	keys  []uint64     // scratch: each batch row's packed key
	group []expr.Value // scratch: the values of a tuple met for the first time
}

// fits reports whether every dictionary still fits its bit field.
func (x *codeIndex) fits(groups []groupCol) bool {
	if x.width == nil {
		return false
	}
	for g := range groups {
		if len(groups[g].Dict) > 1<<x.width[g] {
			return false
		}
	}
	return true
}

// layout sizes the bit fields for the dictionaries as they are now and
// re-registers every known tuple under the new keys.
func (x *codeIndex) layout(groups []groupCol) {
	x.width = make([]uint, len(groups))
	x.shift = make([]uint, len(groups))
	total := uint(0)
	for g := range groups {
		x.width[g] = uint(bits.Len(uint(len(groups[g].Dict)))) + 1
		x.shift[g] = total
		total += x.width[g]
	}
	x.wide, x.flat, x.table = total > 62, nil, nil
	if x.wide {
		return
	}
	if total <= flatIndexBits {
		x.flat = make([]int32, 1<<total)
	} else {
		x.table = make(map[uint64]int32, len(x.states))
	}
	k := len(groups)
	for e, group := range x.states {
		var key uint64
		for g, code := range x.tuples[e*k : (e+1)*k] {
			key |= uint64(code) << x.shift[g]
		}
		x.set(key, group)
	}
}

func (x *codeIndex) set(key uint64, group int32) {
	if x.flat != nil {
		x.flat[key] = group + 1
	} else {
		x.table[key] = group
	}
}

// pack returns each of the n batch rows' code tuple packed into its
// key, a group column at a time.
func (x *codeIndex) pack(n int, groups []groupCol) []uint64 {
	x.keys = zeroed(x.keys, n)
	if x.wide {
		return x.keys
	}
	for g := range groups {
		c, shift := &groups[g], x.shift[g]
		if c.sel == nil {
			for r, code := range c.Codes[:n] {
				x.keys[r] |= uint64(code) << shift
			}
			continue
		}
		for r, s := range c.sel[:n] {
			x.keys[r] |= uint64(c.Codes[s]) << shift
		}
	}
	return x.keys
}

// AddVectors folds a batch of n rows given column-wise: groups holds
// one column per group column, measures one per aggregate (ignored for
// COUNT(*)). It is Add for callers that hold columns rather than rows
// and folds into the same states, so the two may be mixed on one
// aggregator. Nothing passed in is retained but dictionaries, which no
// vector ever changes: the caller may overwrite a vector's rows once
// AddVectors returns (TestAggregatorDoesNotRetainVectors).
func (a *HashAggregator) AddVectors(n int, groups, measures []Column) error {
	o := a.op
	if len(groups) != len(o.gIdx) || len(measures) != len(o.aggs) {
		return fmt.Errorf("engine: vector batch has %d group and %d measure columns, aggregator expects %d and %d",
			len(groups), len(measures), len(o.gIdx), len(o.aggs))
	}
	return o.addVectors(n, groups, measures)
}

func (o *aggregationOp) addVectors(n int, groups, measures []Column) error {
	v := &o.vec
	// Measures are read whole: a selected column is gathered first, once
	// for all the aggregates over it.
	ms := v.measures
	for i, m := range measures {
		if o.aIdx[i] == -1 {
			continue
		}
		if m.Sel == nil {
			ms[i] = m.Vec
			continue
		}
		ms[i] = nil
		for j := range i {
			if o.aIdx[j] != -1 && measures[j].same(m) {
				ms[i] = ms[j]
				break
			}
		}
		if ms[i] == nil {
			if v.gathered[i] == nil {
				v.gathered[i] = &storage.Vector{}
			}
			m.Vec.Gather(v.gathered[i], m.Sel)
			ms[i] = v.gathered[i]
		}
	}
	if err := o.checkSummable(n, ms); err != nil {
		return err
	}
	gs := o.groupsOf(n, groups)
	for i, spec := range o.aggs {
		c, m := &o.cols[i], ms[i]
		if o.aIdx[i] == -1 { // COUNT(*)
			for _, g := range gs {
				c.Counts[g]++
			}
			continue
		}
		switch spec.Func {
		case "COUNT":
			for r, g := range gs {
				if !m.IsNull(r) {
					c.Counts[g]++
				}
			}
		case "MIN", "MAX":
			c.foldExtreme(gs, m, spec.Func == "MIN")
		default: // SUM, AVG
			c.foldSum(gs, m)
		}
	}
	return nil
}

// groupsOf returns the group of each of the n rows of the group
// columns, registering groups for tuples not met before. It is the
// group half of AddVectors, and Absorb's lookup of a partial's cells:
// the returned slice is scratch, valid until the next call.
func (o *aggregationOp) groupsOf(n int, groups []Column) []int32 {
	v := &o.vec
	for g, col := range groups {
		if col.Group != v.numbering[g] {
			// Codes of another numbering mean other values: the tuples
			// indexed so far no longer apply (findOrCreate still finds
			// their states by value).
			v.numbering[g], v.byCode = col.Group, &codeIndex{}
		}
		if col.Group != nil {
			v.groups[g] = groupCol{*col.Group, col.Sel}
			continue
		}
		v.coded[g] = v.coders[g].code(col, n, v.coded[g][:0])
		v.groups[g] = groupCol{GroupCodes{v.coded[g], v.coders[g].dict}, nil}
	}
	// Each row's tuple is looked up in the code index; a tuple not met
	// before registers its group — in first-seen order, through
	// findOrCreate.
	gs, x := Sized(v.rowGroups, n), v.byCode
	v.rowGroups = gs
	if !x.fits(v.groups) {
		x.layout(v.groups)
	}
	for r, key := range x.pack(n, v.groups) {
		group := int32(-1)
		switch {
		case x.flat != nil:
			group = x.flat[key] - 1
		case x.table != nil:
			if e, ok := x.table[key]; ok {
				group = e
			}
		}
		if group >= 0 {
			gs[r] = group
			continue
		}
		// A tuple not met before: its values decide the group, by the
		// rules of the row fold.
		x.group = x.group[:0]
		for _, c := range v.groups {
			x.group = append(x.group, c.Dict[c.code(r)])
		}
		gs[r] = o.findOrCreate(x.group)
		if x.wide {
			continue
		}
		for _, c := range v.groups {
			x.tuples = append(x.tuples, c.code(r))
		}
		x.states = append(x.states, gs[r])
		x.set(key, gs[r])
	}
	return gs
}

// checkSummable reports the error the row fold would stop at: the
// first row, and in it the first SUM or AVG, whose input is neither
// NULL nor numeric.
func (o *aggregationOp) checkSummable(n int, measures []*storage.Vector) error {
	row, agg := n, -1
	for i, spec := range o.aggs {
		m := measures[i]
		if spec.Func != "SUM" && spec.Func != "AVG" || !m.Coded() {
			continue
		}
		for r := 0; r < row; r++ {
			if !m.IsNull(r) && !m.Value(r).IsNumeric() {
				row, agg = r, i
			}
		}
	}
	if agg < 0 {
		return nil
	}
	return fmt.Errorf("aggregation %s over non-numeric value %s", o.aggs[agg].Func, measures[agg].Value(row))
}

// foldSum folds one SUM (or AVG) input column, numeric by checkSummable,
// into the running sums of the rows' groups gs, by the row fold's rule.
func (c *StateCols) foldSum(gs []int32, m *storage.Vector) {
	switch m.Kind {
	case expr.KindInt:
		for r, g := range gs {
			if !m.IsNull(r) {
				c.Counts[g]++
				c.addInt(g, m.Ints[r])
			}
		}
	case expr.KindFloat:
		for r, g := range gs {
			if !m.IsNull(r) {
				c.Counts[g]++
				c.addFloat(g, m.Floats[r])
			}
		}
	default: // mixed ints and floats
		for r, g := range gs {
			if m.IsNull(r) {
				continue
			}
			v := m.Value(r)
			c.Counts[g]++
			if v.Kind() == expr.KindInt {
				c.addInt(g, v.AsInt())
			} else {
				f, _ := v.AsFloat()
				c.addFloat(g, f)
			}
		}
	}
}

// foldExtreme folds one MIN (or MAX) input column into the running
// extremes of the rows' groups gs, by the row fold's rule (keepExtreme).
func (c *StateCols) foldExtreme(gs []int32, m *storage.Vector, min bool) {
	cur := c.Maxs
	if min {
		cur = c.Mins
	}
	for r, g := range gs {
		if !m.IsNull(r) {
			c.Counts[g]++
			keepExtreme(&cur[g], m.Value(r), min)
		}
	}
}
