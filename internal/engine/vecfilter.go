package engine

import (
	"math"

	"quarry/internal/expr"
)

// VectorFilter applies a predicate to the rows of a vector batch — the
// ETL executor's Selection, the OLAP fast path's filter and the
// materialized aggregates' group filter. The answer is expr.EvalBool's
// on each row, NULL and error semantics included; the work is not done
// a row at a time.
//
// The predicate is split into its top-level conjuncts, and each is a
// pass over a shrinking selection of the batch's rows: a row a conjunct
// rejects never reaches the next. That is AND's left-to-right
// short-circuit (evalLogical), conjunct by conjunct. A conjunct that is
// NULL on a row leaves it open — a later conjunct may still fail with an
// error there — but never accepted; a conjunct whose value is not a
// bool is an error. Each conjunct is one of three kinds of pass, chosen
// per batch:
//
//   - it reads one column and the batch's vector of it is coded (a
//     string, bool or mixed vector): its verdict is evaluated once per
//     dictionary entry the rows refer to and kept for as long as the
//     dictionary is presented again, so `n_name = 'SPAIN'` costs a table
//     lookup per row;
//   - it compares one int or float column with a numeric literal: a
//     typed loop ordering each value against the literal with
//     expr.OrderOf or expr.IntFloatOrder — the arithmetic of
//     Value.Compare and Value.Equal — and the verdict of each order read
//     off the evaluator itself;
//   - anything else (OR, NOT, functions, two columns): expr.Eval over a
//     scratch row, on the open rows only.
//
// When a conjunct errors on an open row, the batch is evaluated again a
// row at a time by expr.EvalBool, the reference, whose error — the first
// row's, in its words — is returned.
type VectorFilter struct {
	node    expr.Node
	env     *expr.SliceEnv
	scratch []expr.Value // one slot per identifier the caller's columns hold
	cols    []int        // the caller's column of each slot
	conj    []*conjunct

	open    []int32 // the batch rows no conjunct has rejected, in order
	null    []bool  // per open row: some conjunct was NULL on it
	verdict []uint8 // per open row: the current conjunct's verdict
}

// The verdict of a conjunct on a row; 0 is "not evaluated yet".
const (
	vFalse = 1 + iota
	vTrue
	vNull
	vErr
)

// stays is 1 for the verdicts that leave a row open.
var stays = [...]int{vFalse: 0, vTrue: 1, vNull: 1}

type conjunct struct {
	node  expr.Node
	slots []int // the scratch slots of the identifiers it names
	slot  int   // the one column it reads, or -1

	num    bool       // node is `column ⋈ numeric literal`, either way round
	lit    expr.Value // the literal
	accept [4]uint8   // per expr.Order of a row's value to lit: the verdict

	dict    []expr.Value // the dictionary entries holds verdicts about
	entries []uint8      // per entry of dict: its verdict, 0 until evaluated
	onNull  uint8        // the verdict on a NULL row, 0 until evaluated
}

// NewVectorFilter prepares pred over batches whose columns index names;
// an identifier index lacks stays unbound, an evaluation error as it
// would be over a row.
func NewVectorFilter(pred expr.Node, index map[string]int) *VectorFilter {
	f := &VectorFilter{node: pred}
	slots := map[string]int{}
	for _, id := range expr.Idents(pred) {
		if ci, ok := index[id]; ok {
			slots[id] = len(f.cols)
			f.cols = append(f.cols, ci)
		}
	}
	f.env = expr.NewSliceEnv(slots)
	f.scratch = make([]expr.Value, len(f.cols))
	f.env.Bind(f.scratch)
	for _, node := range expr.Conjuncts(pred) {
		c := &conjunct{node: node, slot: -1}
		ids := expr.Idents(node)
		for _, id := range ids {
			if slot, ok := slots[id]; ok {
				c.slots = append(c.slots, slot)
			}
		}
		if len(ids) == 1 && len(c.slots) == 1 {
			c.slot = c.slots[0]
			if _, op, lit, ok := expr.Comparison(node); ok && lit.IsNumeric() {
				c.accept, c.num = orderVerdicts[op]
				c.lit = lit
			}
		}
		f.conj = append(f.conj, c)
	}
	return f
}

// orderVerdicts holds, per comparison operator as expr.Comparison
// spells it, the evaluator's verdict of `a op b` on a pair of numbers in
// each expr.Order.
var orderVerdicts = func() map[string][4]uint8 {
	pairs := [4][2]float64{expr.Less: {0, 1}, expr.Same: {1, 1}, expr.Greater: {1, 0}, expr.Unordered: {math.NaN(), 1}}
	m := map[string][4]uint8{}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		var accept [4]uint8
		node := expr.MustParse("a " + op + " b")
		for o, p := range pairs {
			accept[o] = verdictOf(expr.Eval(node, expr.MapEnv(map[string]expr.Value{"a": expr.Float(p[0]), "b": expr.Float(p[1])})))
		}
		m[op] = accept
	}
	return m
}()

// verdictOf is a conjunct's verdict on its value, as evalLogical reads
// an operand.
func verdictOf(v expr.Value, err error) uint8 {
	switch {
	case err != nil:
		return vErr
	case v.IsNull():
		return vNull
	case v.Kind() != expr.KindBool:
		return vErr
	case v.AsBool():
		return vTrue
	}
	return vFalse
}

// Apply appends to kept, in order, the rows of the n-row batch (its
// columns as NewVectorFilter's index numbers them) the predicate
// accepts.
func (f *VectorFilter) Apply(n int, cols []Column, kept []int32) ([]int32, error) {
	f.open, f.null = Sized(f.open, n), extend(f.null[:0], n)
	for j := range f.open {
		f.open[j] = int32(j)
	}
	for _, c := range f.conj {
		if len(f.open) == 0 {
			break
		}
		f.verdict = Sized(f.verdict, len(f.open))
		switch {
		case c.slot >= 0 && cols[f.cols[c.slot]].Vec.Coded():
			f.byEntry(c, cols[f.cols[c.slot]])
		case c.num:
			f.compare(c, cols[f.cols[c.slot]])
		default:
			f.byRow(c, cols)
		}
		if !f.narrow() {
			return f.rowLoop(n, cols, kept)
		}
	}
	for i, j := range f.open {
		if !f.null[i] {
			kept = append(kept, j)
		}
	}
	return kept, nil
}

// narrow drops the open rows the current conjunct rejected; false when
// it errored on one.
func (f *VectorFilter) narrow() bool {
	w := 0
	for i, v := range f.verdict {
		if v == vErr {
			return false
		}
		// Every row is written, and only an open one advances w: no
		// branch on the verdict, which a filter keeping half the rows
		// would mispredict half the time.
		f.open[w], f.null[w] = f.open[i], f.null[i] || v == vNull
		w += stays[v]
	}
	f.open, f.null = f.open[:w], f.null[:w]
	return true
}

// eval is c's verdict with its one column's slot holding v.
func (f *VectorFilter) eval(c *conjunct, v expr.Value) uint8 {
	f.scratch[c.slot] = v
	return verdictOf(expr.Eval(c.node, f.env.Env()))
}

// byEntry gives each open row the verdict of its dictionary entry.
func (f *VectorFilter) byEntry(c *conjunct, col Column) {
	vec := col.Vec
	if !sameDict(vec.Dict, c.dict) {
		c.dict, c.entries = vec.Dict, extend(c.entries[:0], len(vec.Dict))
	}
	for i, j := range f.open {
		s := col.row(int(j))
		if vec.IsNull(s) {
			if c.onNull == 0 {
				c.onNull = f.eval(c, expr.Null())
			}
			f.verdict[i] = c.onNull
			continue
		}
		e := vec.Codes[s]
		if c.entries[e] == 0 {
			c.entries[e] = f.eval(c, vec.Dict[e])
		}
		f.verdict[i] = c.entries[e]
	}
}

// compare orders each open row's number against the literal, exactly:
// a typed loop per pair of kinds. A NULL row makes the comparison NULL.
func (f *VectorFilter) compare(c *conjunct, col Column) {
	vec, lit := col.Vec, c.lit
	l, _ := lit.AsFloat()
	switch {
	case vec.Kind == expr.KindInt && lit.Kind() == expr.KindInt:
		for i, j := range f.open {
			f.verdict[i] = c.accept[expr.OrderOf(vec.Ints[col.row(int(j))], lit.AsInt())]
		}
	case vec.Kind == expr.KindInt:
		for i, j := range f.open {
			f.verdict[i] = c.accept[expr.IntFloatOrder(vec.Ints[col.row(int(j))], l)]
		}
	case lit.Kind() == expr.KindFloat || expr.IntFloatOrder(lit.AsInt(), l) == expr.Same:
		// The literal is a float, or an int its float64 image holds
		// exactly: floats order the rows.
		for i, j := range f.open {
			f.verdict[i] = c.accept[expr.OrderOf(vec.Floats[col.row(int(j))], l)]
		}
	default:
		for i, j := range f.open {
			f.verdict[i] = c.accept[expr.IntFloatOrder(lit.AsInt(), vec.Floats[col.row(int(j))]).Reverse()]
		}
	}
	if vec.Nulls != nil {
		for i, j := range f.open {
			if vec.IsNull(col.row(int(j))) {
				f.verdict[i] = vNull
			}
		}
	}
}

// byRow evaluates the conjunct on each open row.
func (f *VectorFilter) byRow(c *conjunct, cols []Column) {
	ev := f.env.Env()
	for i, j := range f.open {
		for _, slot := range c.slots {
			col := &cols[f.cols[slot]]
			f.scratch[slot] = col.Vec.Value(col.row(int(j)))
		}
		f.verdict[i] = verdictOf(expr.Eval(c.node, ev))
	}
}

// rowLoop is the reference the passes stand in for: expr.EvalBool on
// the whole predicate, a row at a time in batch order.
func (f *VectorFilter) rowLoop(n int, cols []Column, kept []int32) ([]int32, error) {
	ev := f.env.Env()
	for j := 0; j < n; j++ {
		for slot, ci := range f.cols {
			col := &cols[ci]
			f.scratch[slot] = col.Vec.Value(col.row(j))
		}
		ok, err := expr.EvalBool(f.node, ev)
		if err != nil {
			return kept, err
		}
		if ok {
			kept = append(kept, int32(j))
		}
	}
	return kept, nil
}
