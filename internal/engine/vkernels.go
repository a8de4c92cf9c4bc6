package engine

import (
	"fmt"
	"slices"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// The vector kernels of the production executor (pipeline.go). Each
// resolves its columns by name against the planned layouts of its edges,
// like the row kernel it stands beside (kernels.go), and maps batches to
// batches without building a row: a Projection or a Join whose every
// probe row matched once passes its input's vectors through untouched,
// a Selection or a Join gathers the rows it keeps, and a Function
// evaluates into a fresh vector.

// Batch is a run of N rows streamed along one design edge, column by
// column: one vector per column of the edge's planned layout, each N
// rows long. Batches are immutable once emitted: a batch — and any
// vector in it, which later batches may pass on — may be shared by
// every consumer of a fan-out node, so operators never mutate what they
// receive.
type Batch struct {
	N    int
	Cols []*storage.Vector
}

// gather returns the batch of the rows sel picks, in sel's order.
func (b *Batch) gather(sel []int32) *Batch {
	out := &Batch{N: len(sel), Cols: make([]*storage.Vector, len(b.Cols))}
	for i, v := range b.Cols {
		out.Cols[i] = gathered(v, sel)
	}
	return out
}

func gathered(v *storage.Vector, sel []int32) *storage.Vector {
	dst := &storage.Vector{}
	v.Gather(dst, sel)
	return dst
}

// rowBuffer transposes batches into rows where an operator is defined on
// rows: Sort and SurrogateKey.
type rowBuffer struct {
	rows [][]expr.Value
	vals []expr.Value
}

// of returns the rows of b, cut from the buffer: valid until the next
// call.
func (t *rowBuffer) of(b *Batch) [][]expr.Value {
	width := len(b.Cols)
	if cap(t.vals) < b.N*width {
		t.vals = make([]expr.Value, b.N*width)
	}
	vals := t.vals[:b.N*width]
	t.rows = t.rows[:0]
	for r := 0; r < b.N; r++ {
		t.rows = append(t.rows, vals[r*width:(r+1)*width:(r+1)*width])
	}
	for c, v := range b.Cols {
		for r, row := range t.rows {
			row[c] = v.Value(r)
		}
	}
	return t.rows
}

// batchOf transposes rows of the given width into a batch, through vals
// (scratch, returned for reuse).
func batchOf(rows [][]expr.Value, width int, vals []expr.Value) (*Batch, []expr.Value) {
	b := &Batch{N: len(rows), Cols: make([]*storage.Vector, width)}
	for c := range b.Cols {
		vals = vals[:0]
		for _, row := range rows {
			vals = append(vals, row[c])
		}
		b.Cols[c] = storage.VectorOf(vals)
	}
	return b, vals
}

// checkSource verifies that the source table behind index has every
// column the design declares, whether or not this run reads it: what a
// design may read is part of its contract with the source.
func checkSource(n *xlm.Node, index func(string) (int, bool)) error {
	for _, f := range n.Fields {
		if _, ok := index(f.Name); !ok {
			return fmt.Errorf("source table %q lacks column %q", n.Param("table"), f.Name)
		}
	}
	return nil
}

// vecDatastore reads a source table's pages as vectors. The table
// version is bound at construction (a snapshot view), so loaders
// replacing or appending to the same table mid-run are not seen.
type vecDatastore struct {
	view *storage.TableView
	cols []int // physical position of each out column
}

func newVecDatastore(n *xlm.Node, db *storage.DB, out []xlm.Field) (*vecDatastore, error) {
	table := n.Param("table")
	snap, err := db.Snapshot(table)
	if err != nil {
		return nil, fmt.Errorf("source table %q not found", table)
	}
	view, _ := snap.Table(table)
	if err := checkSource(n, view.ColumnIndex); err != nil {
		return nil, err
	}
	op := &vecDatastore{view: view, cols: make([]int, len(out))}
	for i, f := range out {
		op.cols[i], _ = view.ColumnIndex(f.Name)
	}
	return op, nil
}

// next reads the next page (or tail chunk) through cur and cuts it into
// batches of at most max rows; nil at the end. Page and tail vectors
// are immutable and stay valid, so batches share them.
func (o *vecDatastore) next(cur *storage.Cursor, vecs []*storage.Vector, max int) []*Batch {
	n := cur.NextVectors(o.cols, vecs)
	if n == 0 {
		return nil
	}
	var out []*Batch
	for lo := 0; lo < n; lo += max {
		hi := min(lo+max, n)
		b := &Batch{N: hi - lo, Cols: slices.Clone(vecs)}
		if b.N < n {
			for i, v := range vecs {
				b.Cols[i] = v.Slice(lo, hi)
			}
		}
		out = append(out, b)
	}
	return out
}

// vecSelection keeps the rows a predicate accepts (SQL WHERE: NULL
// counts as false), through the VectorFilter.
type vecSelection struct {
	f    *VectorFilter
	cols []Column
	kept []int32
}

func newVecSelection(n *xlm.Node, in []xlm.Field) (*vecSelection, error) {
	pred, err := n.Predicate()
	if err != nil {
		return nil, err
	}
	return &vecSelection{f: NewVectorFilter(pred, fieldIndex(in)), cols: make([]Column, len(in))}, nil
}

func (o *vecSelection) filter(b *Batch) (*Batch, error) {
	for i, v := range b.Cols {
		o.cols[i] = Column{Vec: v}
	}
	var err error
	if o.kept, err = o.f.Apply(b.N, o.cols, o.kept[:0]); err != nil {
		return nil, err
	}
	if len(o.kept) == b.N {
		return b, nil
	}
	return b.gather(o.kept), nil
}

// pick returns the batch of b's columns at positions idx — no row is
// copied.
func pick(b *Batch, idx []int, extra int) *Batch {
	out := &Batch{N: b.N, Cols: make([]*storage.Vector, len(idx), len(idx)+extra)}
	for i, j := range idx {
		out.Cols[i] = b.Cols[j]
	}
	return out
}

// vecFunction derives one column per batch; like the row kernel's, it
// is the last column of out in every layout and is evaluated whether or
// not anything reads it. An expression that only names a column passes
// that column's vector on.
type vecFunction struct {
	e       expr.Node
	env     *expr.SliceEnv
	scratch []expr.Value // one slot per identifier the input holds
	in      []int        // input position of each slot
	cp      []int        // input positions carried over, ahead of the derived column
	same    int          // the input position the expression merely names, or -1
	vals    []expr.Value
}

func newVecFunction(n *xlm.Node, in, out []xlm.Field) (*vecFunction, error) {
	e, err := expr.Parse(n.Param("expr"))
	if err != nil {
		return nil, err
	}
	cp, err := carried("function", in, out[:len(out)-1])
	if err != nil {
		return nil, err
	}
	o := &vecFunction{e: e, cp: cp, same: -1}
	index, slots := fieldIndex(in), map[string]int{}
	for _, id := range expr.Idents(e) {
		if j, ok := index[id]; ok {
			slots[id] = len(o.in)
			o.in = append(o.in, j)
		}
	}
	if id, ok := e.(*expr.Ident); ok {
		if j, ok := index[id.Name]; ok {
			o.same = j
		}
	}
	o.env = expr.NewSliceEnv(slots)
	o.scratch = make([]expr.Value, len(o.in))
	o.env.Bind(o.scratch)
	return o, nil
}

func (o *vecFunction) apply(b *Batch) (*Batch, error) {
	out := pick(b, o.cp, 1)
	if o.same >= 0 {
		out.Cols = append(out.Cols, b.Cols[o.same])
		return out, nil
	}
	ev := o.env.Env()
	o.vals = o.vals[:0]
	for r := 0; r < b.N; r++ {
		for i, j := range o.in {
			o.scratch[i] = b.Cols[j].Value(r)
		}
		v, err := expr.Eval(o.e, ev)
		if err != nil {
			return nil, err
		}
		o.vals = append(o.vals, v)
	}
	out.Cols = append(out.Cols, storage.VectorOf(o.vals))
	return out, nil
}

// vecJoin is the hash join on vectors: the build side (right input)
// accumulates into a JoinIndex, then each probe batch maps its key
// columns to build rows and gathers. An output batch is the left
// columns out keeps followed by the right columns it keeps; when every
// probe row matched exactly one build row — an FK→PK join — the left
// columns are the probe batch's own.
type vecJoin struct {
	lIdx, lCp    []int // probe-batch positions of the keys, of the columns kept
	rKeep, rKeys []int // build-batch positions of the columns kept, of the keys
	idx          *JoinIndex
	probe        *JoinProbe

	build, keys       []*storage.Vector
	first, sel, match []int32
}

func newVecJoin(n *xlm.Node, left, right, out []xlm.Field) (*vecJoin, error) {
	op, err := newJoinOp(n, left, right, out) // the row kernel's column resolution
	if err != nil {
		return nil, err
	}
	o := &vecJoin{lIdx: op.lIdx, lCp: op.lCp, rKeep: op.rKeep[:op.nR]}
	for _, k := range op.rIdx {
		o.rKeys = append(o.rKeys, op.rKeep[k])
	}
	o.idx = NewJoinIndex(len(o.rKeep), len(o.rKeys), 0)
	o.build, o.keys = make([]*storage.Vector, len(o.rKeep)), make([]*storage.Vector, len(o.rKeys))
	return o, nil
}

func (o *vecJoin) addBuild(b *Batch) {
	for k, p := range o.rKeep {
		o.build[k] = b.Cols[p]
	}
	keys := make([]*storage.Vector, len(o.rKeys)) // kept by the index until it is finished
	for k, p := range o.rKeys {
		keys[k] = b.Cols[p]
	}
	o.idx.Add(b.N, o.build, keys)
}

func (o *vecJoin) finishBuild() error {
	err := o.idx.Finish()
	o.probe = o.idx.Probe()
	return err
}

func (o *vecJoin) probeBatch(b *Batch) *Batch {
	for k, p := range o.lIdx {
		o.keys[k] = b.Cols[p]
	}
	o.first = Sized(o.first, b.N)
	o.probe.Lookup(b.N, o.keys, o.first)
	once := true
	for _, m := range o.first {
		if m < 0 || o.idx.After(m) >= 0 {
			once = false
			break
		}
	}
	var out *Batch
	match := o.first
	if once {
		out = pick(b, o.lCp, len(o.rKeep))
	} else {
		o.sel, o.match = o.sel[:0], o.match[:0]
		for r, m := range o.first {
			for ; m >= 0; m = o.idx.After(m) {
				o.sel, o.match = append(o.sel, int32(r)), append(o.match, m)
			}
		}
		out = &Batch{N: len(o.sel), Cols: make([]*storage.Vector, len(o.lCp), len(o.lCp)+len(o.rKeep))}
		for i, p := range o.lCp {
			out.Cols[i] = gathered(b.Cols[p], o.sel)
		}
		match = o.match
	}
	for _, v := range o.idx.Cols {
		out.Cols = append(out.Cols, gathered(v, match))
	}
	return out
}
