package engine

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// The aggregation kernel's vector entry: the ETL executor and the OLAP
// fast path hand HashAggregator.AddVectors a batch column by column,
// and the kernel folds it into the same state columns Add(rows) folds
// into. A group is its tuple of codes: each group column is numbered
// by identity (expr.Value.Key) by a dictCoder of the aggregator's own,
// so a code means one identity on every batch, whatever dictionaries
// the batches arrive with, and equal tuples are one group — NULLs
// together, Int 3 with Float 3.0 but not Int 2⁵³+1 with Float 2⁵³, −0
// with +0, every NaN with every NaN. A column that comes numbered
// already (Column.Group: a join index's build column, numbered once per
// build row by the same rules) is read as it is when it is the first
// numbering the column meets, and translated otherwise. A row's group
// is found from its tuple (codeIndex), so no group value is hashed or
// compared per row, and groups are numbered in first-seen order. Then
// each aggregate folds its input column into its state columns at the
// rows' group indexes. Add codes its rows' values through the same
// coders, and Absorb finds the groups of a partial's cells the same
// way, its key vectors standing for a batch's group columns; Result and
// Partials see no difference.

// GroupCodes is a group column numbered for grouping: a code per row
// and the value each code stands for, by dictCoder's rules — the
// entries are canonical values of distinct identities.
type GroupCodes struct {
	Codes []uint32
	Dict  []expr.Value
}

// groupCol is one group column of a batch as the code index reads it:
// row r's code is Codes[sel[r]], or Codes[r] when sel is nil.
type groupCol struct {
	Codes []uint32
	sel   []int32
}

func (c *groupCol) code(r int) uint32 {
	if c.sel == nil {
		return c.Codes[r]
	}
	return c.Codes[c.sel[r]]
}

// vecState is an aggregationOp's grouping — its coders and code index —
// and the vector entry's and exit's scratch.
type vecState struct {
	index     codeIndex
	coders    []dictCoder
	coded     [][]uint32 // per group column: its coder's codes for the batch
	groups    []groupCol
	oneKind   []bool            // per group column: its rows are of their entries' kind (dictCoder.holdsOnly)
	rowGroups []int32           // each batch row's group
	measures  []*storage.Vector // per aggregate: its input rows
	gathered  []*storage.Vector // per aggregate: its selected input rows
	vals      []expr.Value      // the vector exit's: a column's values
}

// flatIndexBits is the widest packed key the codeIndex serves from a
// flat array (256 KiB of int32s); wider keys go through a map.
const flatIndexBits = 16

// codeIndex maps a code tuple to its group. The tuple's codes are
// packed into one integer key, each column in a bit field sized for
// twice its dictionary, or for the dictionary itself where the coder
// adopted a finished numbering (GroupCodes) and has not grown it; when
// a dictionary outgrows its field the index is laid out again from the
// groups' tuples, so the cost of growth is amortised like a slice's. A
// tuple wider than 62 bits is looked up by its codes' bytes instead. A
// map is made for the groups expected, and kept, emptied, when the
// index is laid out again.
type codeIndex struct {
	width  []uint // bits per group column; nil until the first layout
	shift  []uint
	flat   []int32          // key → group + 1, when the key space is small
	table  map[uint64]int32 // key → group, when it is not
	wide   map[string]int32 // codes' bytes → group, when the key does not fit 62 bits
	expect int              // the groups expected (aggregationOp.expect), a capacity

	last      uint64   // the previous row's key, whose group is lastGroup
	lastGroup int32    // -1 when no row since the last layout
	keys      []uint64 // scratch: each batch row's packed key
	tuple     []byte   // scratch: a wide tuple's codes
}

// fits reports whether every dictionary still fits its bit field.
func (x *codeIndex) fits(coders []dictCoder) bool {
	if x.width == nil {
		return false
	}
	for g := range coders {
		if len(coders[g].dict) > 1<<x.width[g] {
			return false
		}
	}
	return true
}

// layout sizes the bit fields for the dictionaries as they are now and
// re-registers the tuples of the groups so far, codes holding them.
func (x *codeIndex) layout(coders []dictCoder, codes []uint32, groups int) {
	x.width = make([]uint, len(coders))
	x.shift = make([]uint, len(coders))
	total := uint(0)
	for g := range coders {
		x.width[g] = uint(bits.Len(uint(len(coders[g].dict))))
		if !coders[g].finished() {
			x.width[g]++ // room to grow
		}
		x.shift[g] = total
		total += x.width[g]
	}
	x.lastGroup = -1
	if x.wide != nil {
		return // the codes' bytes do not depend on the fields
	}
	x.flat = nil
	room := max(groups, x.expect)
	if total > 62 {
		x.table, x.wide = nil, make(map[string]int32, room)
		for g := range groups {
			x.wide[string(x.tupleOf(func(j int) uint32 { return codes[g*len(coders)+j] }))] = int32(g)
		}
		return
	}
	switch {
	case total <= flatIndexBits:
		x.flat = make([]int32, 1<<total)
	case x.table == nil:
		x.table = make(map[uint64]int32, room)
	default:
		clear(x.table) // its room stays: the groups are entered again
	}
	k := len(coders)
	for g := range groups {
		var key uint64
		for j, code := range codes[g*k : (g+1)*k] {
			key |= uint64(code) << x.shift[j]
		}
		x.set(key, int32(g))
	}
}

func (x *codeIndex) get(key uint64) int32 {
	if x.flat != nil {
		return x.flat[key] - 1
	}
	if g, ok := x.table[key]; ok {
		return g
	}
	return -1
}

func (x *codeIndex) set(key uint64, group int32) {
	if x.flat != nil {
		x.flat[key] = group + 1
	} else {
		x.table[key] = group
	}
}

// tupleOf returns a tuple's codes as bytes, code(j) being column j's.
func (x *codeIndex) tupleOf(code func(j int) uint32) []byte {
	x.tuple = x.tuple[:0]
	for j := range x.width {
		x.tuple = binary.LittleEndian.AppendUint32(x.tuple, code(j))
	}
	return x.tuple
}

// pack returns each of the n batch rows' code tuple packed into its
// key, a group column at a time.
func (x *codeIndex) pack(n int, groups []groupCol) []uint64 {
	x.keys = extend(x.keys[:0], n)
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
		c := &v.coders[g]
		switch {
		case col.Group != nil && c.adopt(col.Group):
			v.groups[g] = groupCol{col.Group.Codes, col.Sel}
		default:
			if c.dict == nil && v.index.expect > 0 { // sized for the groups expected
				c.dict = make([]expr.Value, 0, v.index.expect)
			}
			v.coded[g] = c.code(col, n, v.coded[g][:0])
			v.groups[g] = groupCol{v.coded[g], nil}
		}
		v.oneKind[g] = c.holdsOnly(col.Vec)
	}
	return o.lookup(n, func(r, g int) expr.Value { return groups[g].Vec.Value(groups[g].row(r)) })
}

// lookup returns the group of each of the n rows whose codes v.groups
// holds, registering a group for a tuple not met before; value(r, g)
// is row r's value in group column g, which a new group keeps. A row
// whose tuple is the previous row's takes its group without a lookup:
// the ETL's input arrives in runs of one key.
func (o *aggregationOp) lookup(n int, value func(r, g int) expr.Value) []int32 {
	v := &o.vec
	x := &v.index
	gs := Sized(v.rowGroups, n)
	v.rowGroups = gs
	if !x.fits(v.coders) {
		x.layout(v.coders, o.codes, o.groups)
	}
	switch {
	case x.wide != nil:
		for r := range gs {
			tuple := x.tupleOf(func(j int) uint32 { return v.groups[j].code(r) })
			group, ok := x.wide[string(tuple)]
			if !ok {
				group = o.create(r, value)
				x.wide[string(tuple)] = group
			}
			gs[r] = group
		}
	default:
		last, group := x.last, x.lastGroup
		for r, key := range x.pack(n, v.groups) {
			if key != last || group < 0 {
				last, group = key, x.get(key)
				if group < 0 {
					group = o.create(r, value)
					x.set(key, group)
				}
			}
			gs[r] = group
		}
		x.last, x.lastGroup = last, group
	}
	for i := range o.cols {
		o.cols[i].grow(o.aggs[i].Func, o.groups)
	}
	return gs
}

// create registers row r's tuple as the next group. Its key is read
// from the coders' dictionaries, but where the row holds another
// representation of its column's entry (Float 3.0 where the entry is
// Int 3), the group keeps the row's; a column whose rows are of their
// entries' kind (oneKind) is not looked at.
func (o *aggregationOp) create(r int, value func(r, g int) expr.Value) int32 {
	group, k := int32(o.groups), len(o.gIdx)
	o.groups++
	o.codes = extend(o.codes, o.groups*k)
	for g := range o.vec.groups {
		code := o.vec.groups[g].code(r)
		o.codes[int(group)*k+g] = code
		if o.vec.oneKind[g] {
			continue
		}
		if x := value(r, g); x.Kind() != o.vec.coders[g].dict[code].Kind() {
			if o.reps == nil {
				o.reps = map[int]expr.Value{}
			}
			o.reps[int(group)*k+g] = x.Canonical()
		}
	}
	return group
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

// The vector exit: the executor's Aggregation hands its groups on as
// batches read from the fold's own columns, with no row between
// (result's rows stay the answer of Finalize, FinalizeCells and the
// materialising reference). A group column is read from its coder's
// dictionary at the groups' codes: ints and floats into typed vectors,
// strings as the codes themselves over the coder's dictionary, which
// only grows and which every batch of the column shares, so a loader's
// commit meets a string once per page, not once per row. A COUNT is
// its counts. Every other column — bools, a batch's column of several
// kinds or only NULLs, a key kept in another representation than its
// entry (reps), the other aggregates' answers — is what
// storage.VectorOf makes of its values: the batch is, value for value
// and kind for kind, the one batchOf makes of result's rows.

// finish readies the answer (ready) and returns the group count,
// failing as result fails: at the first integer SUM, in group then
// aggregate order, whose true sum left int64.
func (o *aggregationOp) finish() (int, error) {
	o.ready()
	for g := range int32(o.groups) {
		for i, a := range o.aggs {
			if a.Func == "SUM" {
				if _, err := o.cols[i].final(a, g); err != nil {
					return 0, err
				}
			}
		}
	}
	return o.groups, nil
}

// batch is groups [lo, hi) of a finished aggregation in its output
// layout: the group columns, then the aggregates.
func (o *aggregationOp) batch(lo, hi int) *Batch {
	k := len(o.gIdx)
	b := &Batch{N: hi - lo, Cols: make([]Column, k+len(o.aggs))}
	for j := range k {
		b.Cols[j].Vec = o.keyColumn(j, lo, hi)
	}
	for i, a := range o.aggs {
		if a.Func == "COUNT" {
			b.Cols[k+i].Vec = &storage.Vector{Kind: expr.KindInt, Ints: o.cols[i].Counts[lo:hi:hi]}
			continue
		}
		b.Cols[k+i].Vec = o.column(lo, hi, func(g int) expr.Value {
			v, _ := o.cols[i].final(a, int32(g)) // finish checked the int sums
			return v
		})
	}
	return b
}

// keyColumn is group column j's keys of groups [lo, hi): typed where
// the batch's keys are of one kind, ints, floats or strings (NULLs
// aside), and none is kept in another representation (reps).
func (o *aggregationOp) keyColumn(j, lo, hi int) *storage.Vector {
	k, dict, n := len(o.gIdx), o.vec.coders[j].dict, hi-lo
	values := func() *storage.Vector {
		return o.column(lo, hi, func(g int) expr.Value { return o.value(g, j) })
	}
	kind := expr.KindNull
	for g := lo; g < hi; g++ {
		if _, kept := o.reps[g*k+j]; kept {
			return values()
		}
		switch x := dict[o.codes[g*k+j]].Kind(); {
		case x == expr.KindNull:
		case kind == expr.KindNull:
			kind = x
		case x != kind:
			return values()
		}
	}
	v := &storage.Vector{Kind: kind}
	switch kind {
	case expr.KindInt:
		v.Ints = make([]int64, n)
	case expr.KindFloat:
		v.Floats = make([]float64, n)
	case expr.KindString:
		v.Codes, v.Dict = make([]uint32, n), slices.Clip(dict)
	default: // bools, or only NULLs
		return values()
	}
	for i := range n {
		code := o.codes[(lo+i)*k+j]
		switch x := &dict[code]; {
		case x.IsNull():
			setNull(v, i, n)
		case kind == expr.KindInt:
			v.Ints[i] = x.AsInt()
		case kind == expr.KindFloat:
			v.Floats[i], _ = x.AsFloat()
		default:
			v.Codes[i] = code
		}
	}
	return v
}

// column is storage.VectorOf of the values of groups [lo, hi).
func (o *aggregationOp) column(lo, hi int, value func(g int) expr.Value) *storage.Vector {
	vals := Sized(o.vec.vals, hi-lo)
	for i := range vals {
		vals[i] = value(lo + i)
	}
	o.vec.vals = vals
	return storage.VectorOf(vals)
}

// setNull marks row i of an n-row vector NULL.
func setNull(v *storage.Vector, i, n int) {
	if v.Nulls == nil {
		v.Nulls = make([]uint64, (n+63)/64)
	}
	v.Nulls[i>>6] |= 1 << (uint(i) & 63)
}
