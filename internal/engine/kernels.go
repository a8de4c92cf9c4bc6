package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// This file holds the row kernels: the materialising reference
// (RunMaterializing) calls each once over a node's full input, at full
// width (every layout it passes is the node's Fields). The pipelined
// executor runs the vector kernels of vkernels.go instead, and shares
// with the reference only what has one definition for both: the
// aggregation states and their finalisation (aggregationOp, which the
// vector entry of vecagg.go folds into), Sort and SurrogateKey (which
// the executor feeds rows transposed from its batches), the loader, and
// the layout resolution below.
//
// Every kernel takes the physical layout of its input edge(s) — the
// columns actually present in the rows it will receive, in order — and
// the row-building kernels (Datastore, Projection, Function,
// SurrogateKey, Join) also take the layout of the rows they must emit,
// a subsequence of the node's logical Fields. Column names are unique
// within a schema (schema inference rejects ambiguous joins, repeated
// datastore fields and redefined columns), so kernels resolve columns
// by name against whatever layout they are given.

// fieldIndex maps column names to positions of a layout.
func fieldIndex(fields []xlm.Field) map[string]int {
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		idx[f.Name] = i
	}
	return idx
}

// carried resolves the columns of out that are copied over from in:
// for each out column, its position in an in row.
func carried(what string, in, out []xlm.Field) ([]int, error) {
	index := fieldIndex(in)
	idx := make([]int, len(out))
	for i, f := range out {
		j, ok := index[f.Name]
		if !ok {
			return nil, fmt.Errorf("%s input lacks column %q", what, f.Name)
		}
		idx[i] = j
	}
	return idx, nil
}

// rowSlab cuts the rows a kernel builds for one batch out of a single
// backing array instead of one allocation per row. Rows are
// capacity-capped sub-slices, so appending to one can never run into
// its neighbour, and when a batch yields more rows than the slab was
// sized for (a join fanning out) a fresh array is started — rows
// already handed out are never moved. A row retained beyond its batch
// pins the whole array it was cut from, so operators that keep a small
// share of what they see (the Join build side) copy what they keep.
type rowSlab struct {
	buf         []expr.Value
	width, rows int
}

// take cuts the next row and fills its leading columns from src[idx].
func (s *rowSlab) take(src []expr.Value, idx []int) []expr.Value {
	if len(s.buf) < s.width {
		s.buf = make([]expr.Value, s.rows*s.width)
	}
	row := s.buf[:s.width:s.width]
	s.buf = s.buf[s.width:]
	for i, j := range idx {
		row[i] = src[j]
	}
	return row
}

// datastoreOp reads a source table's rows through a cursor,
// remapping the physical column order onto the out layout (other
// physical columns are ignored; every declared one must exist, see
// checkSource). The table version is bound at construction (a snapshot
// view), so loaders replacing or appending to the same table mid-run
// are not seen.
type datastoreOp struct {
	view *storage.TableView
	idx  []int // nil: out matches the physical layout, rows pass through
}

func newDatastoreOp(n *xlm.Node, db *storage.DB, out []xlm.Field) (*datastoreOp, error) {
	table := n.Param("table")
	snap, err := db.Snapshot(table)
	if err != nil {
		return nil, fmt.Errorf("source table %q not found", table)
	}
	view, _ := snap.Table(table)
	if err := checkSource(n, view.ColumnIndex); err != nil {
		return nil, err
	}
	idx := make([]int, len(out))
	identity := len(out) == len(view.Columns())
	for i, f := range out {
		j, _ := view.ColumnIndex(f.Name)
		idx[i] = j
		if j != i {
			identity = false
		}
	}
	op := &datastoreOp{view: view, idx: idx}
	if identity {
		op.idx = nil
	}
	return op, nil
}

// read returns the next rows of cur, at most max, nil at the end.
func (o *datastoreOp) read(cur *storage.Cursor, max int) [][]expr.Value {
	rows := cur.Next(max)
	if rows == nil || o.idx == nil {
		return rows
	}
	out := make([][]expr.Value, len(rows))
	slab := rowSlab{width: len(o.idx), rows: len(rows)}
	for i, r := range rows {
		out[i] = slab.take(r, o.idx)
	}
	return out
}

// selectionOp filters rows through a predicate (SQL WHERE semantics:
// NULL counts as false).
type selectionOp struct {
	pred expr.Node
	env  *expr.SliceEnv
}

func newSelectionOp(n *xlm.Node, in []xlm.Field) (*selectionOp, error) {
	pred, err := n.Predicate()
	if err != nil {
		return nil, err
	}
	return &selectionOp{pred: pred, env: expr.NewSliceEnv(fieldIndex(in))}, nil
}

// filter appends the passing rows (shared, not copied) to dst.
func (o *selectionOp) filter(dst, rows [][]expr.Value) ([][]expr.Value, error) {
	env := o.env.Env()
	for _, row := range rows {
		o.env.Bind(row)
		ok, err := expr.EvalBool(o.pred, env)
		if err != nil {
			return nil, err
		}
		if ok {
			dst = append(dst, row)
		}
	}
	return dst, nil
}

// projectionOp projects/renames columns: the specs whose output column
// out keeps, in spec order.
type projectionOp struct {
	idx []int
}

func newProjectionOp(n *xlm.Node, in, out []xlm.Field) (*projectionOp, error) {
	specs, err := n.Projections()
	if err != nil {
		return nil, err
	}
	index, kept := fieldIndex(in), fieldIndex(out)
	idx := make([]int, 0, len(out))
	for _, sp := range specs {
		if _, ok := kept[sp.Out]; !ok {
			continue
		}
		j, ok := index[sp.In]
		if !ok {
			return nil, fmt.Errorf("projection input lacks column %q", sp.In)
		}
		idx = append(idx, j)
	}
	return &projectionOp{idx: idx}, nil
}

func (o *projectionOp) apply(dst, rows [][]expr.Value) [][]expr.Value {
	dst = slices.Grow(dst, len(rows))
	slab := rowSlab{width: len(o.idx), rows: len(rows)}
	for _, row := range rows {
		dst = append(dst, slab.take(row, o.idx))
	}
	return dst
}

// functionOp derives one new attribute per row. The derived column is
// the last column of out in every layout — it is evaluated (and can
// fail the run) whether or not anything downstream reads it.
type functionOp struct {
	e   expr.Node
	env *expr.SliceEnv
	cp  []int // input positions carried over, ahead of the derived column
}

func newFunctionOp(n *xlm.Node, in, out []xlm.Field) (*functionOp, error) {
	e, err := expr.Parse(n.Param("expr"))
	if err != nil {
		return nil, err
	}
	cp, err := carried("function", in, out[:len(out)-1])
	if err != nil {
		return nil, err
	}
	return &functionOp{e: e, env: expr.NewSliceEnv(fieldIndex(in)), cp: cp}, nil
}

func (o *functionOp) apply(dst, rows [][]expr.Value) ([][]expr.Value, error) {
	env := o.env.Env()
	dst = slices.Grow(dst, len(rows))
	slab := rowSlab{width: len(o.cp) + 1, rows: len(rows)}
	for _, row := range rows {
		o.env.Bind(row)
		v, err := expr.Eval(o.e, env)
		if err != nil {
			return nil, err
		}
		nr := slab.take(row, o.cp)
		nr[len(o.cp)] = v
		dst = append(dst, nr)
	}
	return dst, nil
}

// joinOp is a hash join: the build side (right input) is consumed
// incrementally into the hash table, then probe streams the left
// input through it. NULL keys never match (SQL semantics). An output
// row is the left columns out keeps followed by the right columns it
// keeps.
type joinOp struct {
	lIdx []int // key positions in probe rows
	lCp  []int // probe-row positions copied to the output
	// The hash table holds its own narrow copy of each build row: the
	// nR columns the output keeps, then any key column not among them.
	rKeep []int // build-input positions of those columns
	nR    int
	rIdx  []int // key positions in the retained copy
	build map[uint64][][]expr.Value
}

func newJoinOp(n *xlm.Node, left, right, out []xlm.Field) (*joinOp, error) {
	pairs, err := n.JoinPairs()
	if err != nil {
		return nil, err
	}
	lIndex, rIndex := fieldIndex(left), fieldIndex(right)
	o := &joinOp{build: map[uint64][][]expr.Value{}}
	for _, f := range out {
		if j, ok := lIndex[f.Name]; ok {
			o.lCp = append(o.lCp, j)
		} else if j, ok := rIndex[f.Name]; ok {
			o.rKeep = append(o.rKeep, j)
		} else {
			return nil, fmt.Errorf("join inputs lack column %q", f.Name)
		}
	}
	o.nR = len(o.rKeep)
	for _, p := range pairs {
		li, ok := lIndex[p[0]]
		if !ok {
			return nil, fmt.Errorf("join left input lacks column %q", p[0])
		}
		ri, ok := rIndex[p[1]]
		if !ok {
			return nil, fmt.Errorf("join right input lacks column %q", p[1])
		}
		k := slices.Index(o.rKeep, ri)
		if k < 0 {
			k = len(o.rKeep)
			o.rKeep = append(o.rKeep, ri)
		}
		o.lIdx, o.rIdx = append(o.lIdx, li), append(o.rIdx, k)
	}
	return o, nil
}

// addBuild folds build-side rows into the hash table, copying the
// columns the join keeps into the table's own slab: the build side is
// retained until the probe ends, and a row that survived a selective
// upstream filter must not pin the slab of its whole batch.
func (o *joinOp) addBuild(rows [][]expr.Value) {
	slab := rowSlab{width: len(o.rKeep), rows: len(rows)}
	for _, row := range rows {
		rr := slab.take(row, o.rKeep)
		h, null := hashKey(rr, o.rIdx)
		if null {
			continue
		}
		o.build[h] = append(o.build[h], rr)
	}
}

// probe appends the join of the probe rows against the build table to
// dst, preserving probe order (and build insertion order per key).
func (o *joinOp) probe(dst, rows [][]expr.Value) [][]expr.Value {
	dst = slices.Grow(dst, len(rows))
	slab := rowSlab{width: len(o.lCp) + o.nR, rows: len(rows)}
	for _, lr := range rows {
		h, null := hashKey(lr, o.lIdx)
		if null {
			continue
		}
		for _, rr := range o.build[h] {
			if !keysEqual(lr, rr, o.lIdx, o.rIdx) {
				continue
			}
			nr := slab.take(lr, o.lCp)
			copy(nr[len(o.lCp):], rr[:o.nR])
			dst = append(dst, nr)
		}
	}
	return dst
}

func hashKey(row []expr.Value, idx []int) (h uint64, anyNull bool) {
	h = 1469598103934665603
	for _, i := range idx {
		v := row[i]
		if v.IsNull() {
			return 0, true
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, false
}

func keysEqual(l, r []expr.Value, lIdx, rIdx []int) bool {
	for i := range lIdx {
		if !l[lIdx[i]].Equal(r[rIdx[i]]) {
			return false
		}
	}
	return true
}

// aggregationOp groups and aggregates incrementally. A group is an
// index: groups are numbered 0, 1, … in first-seen order, and group g
// is entry g of every column below — its key's codes and each
// aggregate's states. result and Partials walk the groups in that
// order, so groups emit in first-seen order. Keys group by
// expr.Value.Identical — NULLs together, every NaN together — because
// the coders number them by identity (vecagg.go), and a group keeps
// its first row's key, canonical.
type aggregationOp struct {
	aggs []xlm.AggSpec
	gIdx []int
	aIdx []int

	codes  []uint32           // group g's key: codes[g*k : (g+1)*k], k = len(gIdx), one per coder
	groups int                // groups so far
	reps   map[int]expr.Value // at g*k+j: group g's key in column j, where its first row held the other representation of the entry
	cols   []StateCols        // per aggregate: its states, one entry per group

	vec vecState // the grouping's and the vector entry's (vecagg.go)
}

// StateCols is one aggregate's states, entry g for group g — the
// aggregator's own and, through Cells, every partial answer's. Only the
// columns its function reads are allocated: Counts always, Mins for a
// MIN, Maxs for a MAX, and the sum columns for a SUM or AVG. Its exact
// sum of the inputs' float images is Sums plus images: inputs with
// integer images go to the 128-bit imageSum until settle moves them
// over, fractions and absorbed partials to the expansion.
type StateCols struct {
	Counts   []int64 // non-null inputs
	IntSums  []int64 // the int inputs' sum, wrapping
	images   []imageSum
	Sums     []FloatSum
	SumIsInt []bool // no input was a float
	Mins     []expr.Value
	Maxs     []expr.Value
}

func newAggregationOp(n *xlm.Node, in []xlm.Field) (*aggregationOp, error) {
	group := n.GroupBy()
	aggs, err := n.Aggregates()
	if err != nil {
		return nil, err
	}
	index := fieldIndex(in)
	gIdx := make([]int, len(group))
	for i, g := range group {
		j, ok := index[g]
		if !ok {
			return nil, fmt.Errorf("aggregation input lacks group column %q", g)
		}
		gIdx[i] = j
	}
	aIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Func == "COUNT" && a.Col == "" {
			aIdx[i] = -1
			continue
		}
		j, ok := index[a.Col]
		if !ok {
			return nil, fmt.Errorf("aggregation input lacks column %q", a.Col)
		}
		aIdx[i] = j
	}
	return newAggOp(aggs, gIdx, aIdx), nil
}

// newAggOp is an aggregation with no group yet; it keeps the slices.
func newAggOp(aggs []xlm.AggSpec, gIdx, aIdx []int) *aggregationOp {
	k, w := len(gIdx), len(aggs)
	return &aggregationOp{aggs: aggs, gIdx: gIdx, aIdx: aIdx, cols: make([]StateCols, w),
		vec: vecState{coders: make([]dictCoder, k), coded: make([][]uint32, k), groups: make([]groupCol, k),
			measures: make([]*storage.Vector, w), gathered: make([]*storage.Vector, w)}}
}

// key fills row with group g's key values.
func (o *aggregationOp) key(row []expr.Value, g int32) {
	for j := range row {
		row[j] = o.value(int(g), j)
	}
}

// value is group g's key value in group column j.
func (o *aggregationOp) value(g, j int) expr.Value {
	at := g*len(o.gIdx) + j
	if v, ok := o.reps[at]; ok {
		return v
	}
	return o.vec.coders[j].dict[o.codes[at]]
}

// expect sizes the aggregation for the groups a previous run of its
// node emitted: the groups' code tuples, each aggregate's state
// columns, the code index's table and, once a coder codes values of
// its own rather than adopt a numbering (groupsOf), its dictionary (a
// column holds at most as many values as there are groups). It is a
// capacity only: more groups grow as they would without it.
func (o *aggregationOp) expect(groups int) {
	if groups <= 0 {
		return
	}
	o.codes = make([]uint32, 0, groups*len(o.gIdx))
	for i := range o.cols {
		o.cols[i].reserve(o.aggs[i].Func, groups)
	}
	o.vec.index.expect = groups
}

// reserve makes room in the state columns fn keeps for n groups,
// holding none.
func (c *StateCols) reserve(fn string, n int) {
	c.grow(fn, n)
	c.Counts, c.IntSums, c.images, c.Sums = c.Counts[:0], c.IntSums[:0], c.images[:0], c.Sums[:0]
	c.SumIsInt, c.Mins, c.Maxs = c.SumIsInt[:0], c.Mins[:0], c.Maxs[:0]
}

// grow gives the groups up to n their states: zero counts and sums,
// NULL extremes.
func (c *StateCols) grow(fn string, n int) {
	at := len(c.Counts)
	c.Counts = extend(c.Counts, n)
	switch fn {
	case "SUM", "AVG":
		c.IntSums, c.images, c.Sums = extend(c.IntSums, n), extend(c.images, n), extend(c.Sums, n)
		c.SumIsInt = extend(c.SumIsInt, n)
		for g := at; g < n; g++ {
			c.SumIsInt[g] = true
		}
	case "MIN":
		c.Mins = extend(c.Mins, n)
	case "MAX":
		c.Maxs = extend(c.Maxs, n)
	}
}

// extend returns s with length n, its new entries zero, at least
// doubling its capacity when it grows: append grows a long slice by a
// quarter, which would copy each entry some four times over.
func extend[T any](s []T, n int) []T {
	at := len(s)
	if cap(s) < n {
		s = slices.Grow(s, max(n-at, at))
	}
	s = s[:n]
	clear(s[at:])
	return s
}

// identity returns s holding 0, 1, …, n-1, reallocated only when it is
// too small.
func identity(s []int32, n int) []int32 {
	s = Sized(s, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// add folds rows into the running group states, their group values
// coded as AddVectors codes a batch's.
func (o *aggregationOp) add(rows [][]expr.Value) error {
	v := &o.vec
	for g, i := range o.gIdx {
		c := &v.coders[g]
		c.catchUp()
		coded := Sized(v.coded[g], len(rows))
		for r, row := range rows {
			coded[r] = c.value(row[i])
		}
		v.coded[g], v.groups[g] = coded, groupCol{coded, nil}
	}
	gs := o.lookup(len(rows), func(r, g int) expr.Value { return rows[r][o.gIdx[g]] })
	for r, row := range rows {
		g := gs[r]
		for i, a := range o.aggs {
			c := &o.cols[i]
			if o.aIdx[i] == -1 { // COUNT(*)
				c.Counts[g]++
				continue
			}
			v := row[o.aIdx[i]]
			if v.IsNull() {
				continue
			}
			c.Counts[g]++
			switch a.Func {
			case "COUNT":
			case "MIN":
				keepExtreme(&c.Mins[g], v, true)
			case "MAX":
				keepExtreme(&c.Maxs[g], v, false)
			default: // SUM, AVG
				f, ok := v.AsFloat()
				switch {
				case !ok:
					return fmt.Errorf("aggregation %s over non-numeric value %s", a.Func, v)
				case v.Kind() == expr.KindInt:
					c.addInt(g, v.AsInt())
				default:
					c.addFloat(g, f)
				}
			}
		}
	}
	return nil
}

// addInt folds the int v into group g's SUM (or AVG).
func (c *StateCols) addInt(g int32, v int64) {
	c.IntSums[g] += v
	c.images[g].addInt(v)
}

// addFloat folds the float f into group g's SUM (or AVG).
func (c *StateCols) addFloat(g int32, f float64) {
	if !c.images[g].addFloat(f) {
		c.Sums[g].Add(f)
	}
	c.SumIsInt[g] = false
}

// settle moves every group's 128-bit sum into its expansion, which
// then holds the whole exact sum. An expansion made here starts in a
// slab of three parts per group, which is as many as the move adds.
func (c *StateCols) settle() {
	sums := c.Sums
	var slab []float64
	for g := range c.images {
		if c.images[g] == (imageSum{}) {
			continue
		}
		if sums[g].parts == nil {
			if len(slab) == 0 {
				slab = make([]float64, 3*(len(sums)-g))
			}
			sums[g].parts, slab = slab[:0:3], slab[3:]
		}
		c.images[g].addTo(&sums[g])
		c.images[g] = imageSum{}
	}
}

// keepExtreme folds the non-NULL v into a running MIN (or MAX). The
// result must be a function of the multiset folded, not of the order —
// partial states are merged in whatever order shards or aggregate
// entries deliver them — so values are ranked by expr.Value.TotalOrder,
// and where it ties two representations of one value (an int and its
// float, −0 and +0, NaN payloads) extremeTie decides.
func keepExtreme(cur *expr.Value, v expr.Value, min bool) {
	c := v.TotalOrder(*cur)
	if c == 0 {
		c = extremeTie(v, *cur)
	}
	if cur.IsNull() || min && c < 0 || !min && c > 0 {
		*cur = v
	}
}

// extremeTie orders two identical values by representation: an int
// below a float, −0 below +0, NaNs by their bits.
func extremeTie(a, b expr.Value) int {
	if c := cmp.Compare(a.Kind(), b.Kind()); c != 0 {
		return c
	}
	fa, _ := a.AsFloat()
	fb, _ := b.AsFloat()
	return cmp.Compare(floatOrderBits(fa), floatOrderBits(fb))
}

// floatOrderBits maps a float to bits that order as the floats do, the
// sign included.
func floatOrderBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 == 0 {
		return b | 1<<63
	}
	return ^b
}

// result finalises the aggregation: one row per group, in group order.
// A global aggregate over zero rows still emits one row of zero counts /
// NULLs, like SQL.
//
// An integer SUM fails here if its true sum left int64. The fold adds
// with wrap-around, so the int sum is exact modulo 2⁶⁴, and the exact
// float sum of the same values is within a few ulps of the true sum:
// the two differ by about 2⁶⁴ exactly when it overflowed. Both are
// functions of the multiset folded, so the verdict is too — {MaxInt64,
// 1, −1} sums to MaxInt64 in every order and partition although a
// prefix overflows.
func (o *aggregationOp) result() ([][]expr.Value, error) {
	o.ready()
	return finalRows(len(o.gIdx), o.aggs, o.cols, identity(nil, o.groups), o.key)
}

// ready readies the groups for their answers: a global aggregate over
// zero rows gets its one group, and the sums are settled.
func (o *aggregationOp) ready() {
	if len(o.gIdx) == 0 && o.groups == 0 {
		o.lookup(1, nil)
	}
	o.settle()
}

// settle moves every group's 128-bit sums into their expansions.
func (o *aggregationOp) settle() {
	for i := range o.cols {
		o.cols[i].settle()
	}
}

// finalRows is the kernel's finaliser: one row per group sel picks, in
// sel's order — key fills the row's k group values, then each
// aggregate's answer from its state columns, whose float sums are
// settled.
func finalRows(k int, aggs []xlm.AggSpec, cols []StateCols, sel []int32, key func(row []expr.Value, g int32)) ([][]expr.Value, error) {
	w := k + len(aggs)
	out := make([][]expr.Value, len(sel))
	vals := make([]expr.Value, len(out)*w) // one array for every row
	for i, g := range sel {
		row := vals[i*w : (i+1)*w : (i+1)*w]
		key(row[:k], g)
		for j, a := range aggs {
			var err error
			if row[k+j], err = cols[j].final(a, g); err != nil {
				return nil, err
			}
		}
		out[i] = row
	}
	return out, nil
}

// final is aggregate a's answer for group g.
func (c *StateCols) final(a xlm.AggSpec, g int32) (expr.Value, error) {
	switch {
	case a.Func == "COUNT":
		return expr.Int(c.Counts[g]), nil
	case a.Func == "MIN":
		return c.Mins[g], nil
	case a.Func == "MAX":
		return c.Maxs[g], nil
	case c.Counts[g] == 0: // SUM and AVG of nothing
		return expr.Null(), nil
	case a.Func == "AVG":
		return expr.Float(c.Sums[g].Round() / float64(c.Counts[g])), nil
	case !c.SumIsInt[g]:
		return expr.Float(c.Sums[g].Round()), nil
	case math.Abs(float64(c.IntSums[g])-c.Sums[g].Round()) >= 1<<63:
		return expr.Value{}, fmt.Errorf("aggregation SUM %q overflows int64", a.Out)
	}
	return expr.Int(c.IntSums[g]), nil
}

// sortOp buffers its input and emits it stably ordered (NULLs first).
type sortOp struct {
	idx  []int
	rows [][]expr.Value
}

func newSortOp(n *xlm.Node, in []xlm.Field) (*sortOp, error) {
	by := n.SortBy()
	index := fieldIndex(in)
	idx := make([]int, len(by))
	for i, c := range by {
		j, ok := index[c]
		if !ok {
			return nil, fmt.Errorf("sort input lacks column %q", c)
		}
		idx[i] = j
	}
	return &sortOp{idx: idx}, nil
}

func (o *sortOp) add(rows [][]expr.Value) {
	o.rows = append(o.rows, rows...)
}

func (o *sortOp) result() [][]expr.Value {
	slices.SortStableFunc(o.rows, o.compare)
	return o.rows
}

// compare orders two rows by the sort columns, each by
// expr.Value.TotalOrder: NULLs first, every NaN after every number,
// mixed kinds apart. Rows identical on every sort column tie, and the
// stable sort keeps ties in input order.
func (o *sortOp) compare(ra, rb []expr.Value) int {
	for _, j := range o.idx {
		if c := ra[j].TotalOrder(rb[j]); c != 0 {
			return c
		}
	}
	return 0
}

// surrogateKeyOp assigns a dense 1-based integer key per distinct
// natural key, in first-seen order. Assignment only depends on the
// prefix already consumed, so it streams. Like a Function's derived
// column, the key is the last column of out in every layout.
type surrogateKeyOp struct {
	idx      []int
	cp       []int // input positions carried over, ahead of the key
	assigned map[uint64]*skBucket
	next     int64
}

type skBucket struct {
	keys [][]expr.Value
	ids  []int64
}

// surrogateOn parses a SurrogateKey node's natural-key columns.
func surrogateOn(n *xlm.Node) []string {
	var on []string
	for _, c := range strings.Split(n.Param("on"), ",") {
		if c = strings.TrimSpace(c); c != "" {
			on = append(on, c)
		}
	}
	return on
}

func newSurrogateKeyOp(n *xlm.Node, in, out []xlm.Field) (*surrogateKeyOp, error) {
	index := fieldIndex(in)
	var idx []int
	for _, c := range surrogateOn(n) {
		j, ok := index[c]
		if !ok {
			return nil, fmt.Errorf("surrogate key input lacks column %q", c)
		}
		idx = append(idx, j)
	}
	cp, err := carried("surrogate key", in, out[:len(out)-1])
	if err != nil {
		return nil, err
	}
	return &surrogateKeyOp{idx: idx, cp: cp, assigned: map[uint64]*skBucket{}, next: 1}, nil
}

func (o *surrogateKeyOp) apply(dst, rows [][]expr.Value) [][]expr.Value {
	dst = slices.Grow(dst, len(rows))
	slab := rowSlab{width: len(o.cp) + 1, rows: len(rows)}
	for _, row := range rows {
		h := uint64(1469598103934665603)
		for _, j := range o.idx {
			h = h*1099511628211 ^ row[j].Hash()
		}
		b := o.assigned[h]
		if b == nil {
			b = &skBucket{}
			o.assigned[h] = b
		}
		var id int64
		found := false
		for i, k := range b.keys {
			same := true
			for p, j := range o.idx {
				if !k[p].Identical(row[j]) {
					same = false
					break
				}
			}
			if same {
				id = b.ids[i]
				found = true
				break
			}
		}
		if !found {
			id = o.next
			o.next++
			key := make([]expr.Value, len(o.idx))
			for p, j := range o.idx {
				key[p] = row[j]
			}
			b.keys = append(b.keys, key)
			b.ids = append(b.ids, id)
		}
		nr := slab.take(row, o.cp)
		nr[len(o.cp)] = expr.Int(id)
		dst = append(dst, nr)
	}
	return dst
}

// stagedLoads collects a run's completed loads — one detached staging
// table per loaded table — so they are all committed in one critical
// section at the end of the run (storage.DB.Publish): concurrent
// snapshots see either the whole run or none of it, never a new fact
// table joined against old dimension tables.
type stagedLoads struct {
	mu     sync.Mutex
	tables []*storage.Table
}

// add registers a completed staging table.
func (s *stagedLoads) add(t *storage.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables = append(s.tables, t)
}

// commit publishes the run's loads atomically; it is the single
// version bump every successful run causes. On a disk-backed database
// it can fail — the crash-safe manifest commit hit an I/O error — in
// which case no load of the run is visible and no version was bumped.
func (s *stagedLoads) commit(db *storage.DB) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return db.Publish(s.tables...)
}

// loaderOp replaces its target table: batches stream into a detached
// staging table, registered with the run's stagedLoads on finish() and
// published when the whole run succeeds. Concurrent readers (OLAP
// queries, snapshots) therefore never observe a half-loaded table or a
// partially published run, and a failing run leaves every live table
// byte-identical to its pre-run state.
type loaderOp struct {
	table   string
	t       *storage.Table
	staged  *stagedLoads
	filter  func(row []expr.Value) bool
	written int64
	row     []expr.Value // writeVectors' scratch: the row the load filter sees
	kept    []int32      // writeVectors' scratch: the rows the load filter keeps
}

// bindFilter resolves the run's load filter (Options.LoadFilter)
// against this loader's target. The predicate sees rows in the
// target table's column layout.
func (o *loaderOp) bindFilter(lf func(table string, cols []string) (func(row []expr.Value) bool, error)) error {
	if lf == nil {
		return nil
	}
	cols := make([]string, len(o.t.Columns))
	for i, c := range o.t.Columns {
		cols[i] = c.Name
	}
	f, err := lf(o.table, cols)
	if err != nil {
		return err
	}
	o.filter = f
	return nil
}

func newLoaderOp(n *xlm.Node, in []xlm.Field, staged *stagedLoads) (*loaderOp, error) {
	table := n.Param("table")
	cols := make([]storage.Column, len(in))
	for i, f := range in {
		cols[i] = storage.Column{Name: f.Name, Type: f.Type}
	}
	t, err := storage.NewStagingTable(table, cols)
	if err != nil {
		return nil, err
	}
	return &loaderOp{table: table, t: t, staged: staged}, nil
}

// finish records the completed load with the run's staged set.
// Callers invoke it exactly once, after the loader's input is fully
// consumed and only on success paths; the run publishes the set when
// every operation has succeeded.
func (o *loaderOp) finish() { o.staged.add(o.t) }

// writeVectors appends one batch of the pipelined executor to the
// staging table, column by column: the table keeps the batch's vectors
// (or typed copies) as a chunk of its tail, so a column that selects
// its rows is gathered into a vector of its own first. No row is built,
// but for the bound load filter, which sees each row in a reused
// scratch row; the batch's rows it rejects are dropped by selection.
func (o *loaderOp) writeVectors(b *Batch) error {
	if o.filter != nil {
		o.row = Sized(o.row, len(b.Cols))
		o.kept = o.kept[:0]
		for r := 0; r < b.N; r++ {
			for i, c := range b.Cols {
				o.row[i] = c.Vec.Value(c.row(r))
			}
			if o.filter(o.row) {
				o.kept = append(o.kept, int32(r))
			}
		}
		if len(o.kept) < b.N {
			b = b.selected(o.kept, 0)
		}
	}
	cols := make([]*storage.Vector, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.vector()
	}
	if err := o.t.AppendVectors(b.N, cols); err != nil {
		return err
	}
	o.written += int64(b.N)
	return nil
}

// write appends one batch of rows — the materialising executor's,
// which binds no load filter — to the staging table, which copies them
// (InsertAll).
func (o *loaderOp) write(rows [][]expr.Value) error {
	if err := o.t.InsertAll(rows); err != nil {
		return err
	}
	o.written += int64(len(rows))
	return nil
}
