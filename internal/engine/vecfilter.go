package engine

import (
	"quarry/internal/expr"
	"quarry/internal/storage"
)

// VectorFilter applies a predicate to the rows of a vector batch — the
// ETL executor's Selection and the OLAP fast path's filter. The
// predicate is evaluated by expr.EvalBool — the reference's evaluator,
// so NULL and error semantics are its — over a scratch row holding only
// the columns the predicate names, a row at a time in batch order.
//
// One shortcut, still through the same evaluator: when the predicate's
// first conjunct reads a single column and that column is coded (a
// string, bool or mixed vector), the conjunct is evaluated once per
// dictionary entry the rows refer to. Where it is false the whole
// conjunction is false before anything else is evaluated — AND
// short-circuits on a false left operand — so later rows carrying that
// entry are dropped unevaluated: `n_name = 'SPAIN'` is evaluated once
// per nation, not once per row. Entries on which it is true, NULL or an
// error decide nothing: their rows are evaluated in full.
type VectorFilter struct {
	node    expr.Node
	env     *expr.SliceEnv
	scratch []expr.Value // one slot per identifier the caller's columns hold
	cols    []int        // the caller's column of each slot

	lead     expr.Node    // the first conjunct, when it reads one column
	leadSlot int          // that column's slot
	leadDict []expr.Value // the dictionary the verdicts are about
	verdicts []uint8      // per entry: 0 not evaluated yet, else leadFalse or leadOpen
}

const (
	leadFalse = 1 + iota // the first conjunct is false on the entry: its rows fail
	leadOpen             // true, NULL or an error: the rows are evaluated in full
)

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
	if first := expr.Conjuncts(pred)[0]; len(expr.Idents(first)) == 1 {
		if slot, ok := slots[expr.Idents(first)[0]]; ok {
			f.lead, f.leadSlot = first, slot
		}
	}
	return f
}

// failsLead reports whether the first conjunct is false on a
// dictionary entry of the lead column, evaluating it the first time the
// entry is asked about.
func (f *VectorFilter) failsLead(entry uint32) bool {
	if f.verdicts[entry] == 0 {
		f.scratch[f.leadSlot] = f.leadDict[entry]
		v, err := expr.Eval(f.lead, f.env.Env())
		f.verdicts[entry] = leadOpen
		if err == nil && v.Kind() == expr.KindBool && !v.AsBool() {
			f.verdicts[entry] = leadFalse
		}
	}
	return f.verdicts[entry] == leadFalse
}

// Apply appends to kept, in order, the rows of the n-row batch (its
// columns as NewVectorFilter's index numbers them) the predicate
// accepts.
func (f *VectorFilter) Apply(n int, cols []Column, kept []int32) ([]int32, error) {
	var lead *storage.Vector // the lead column, when the shortcut applies to it
	var leadCol Column
	if f.lead != nil {
		if leadCol = cols[f.cols[f.leadSlot]]; leadCol.Vec.Coded() {
			lead = leadCol.Vec
			if !sameDict(lead.Dict, f.leadDict) {
				f.leadDict, f.verdicts = lead.Dict, zeroed(f.verdicts, len(lead.Dict))
			}
		}
	}
	ev := f.env.Env()
	for j := 0; j < n; j++ {
		if lead != nil {
			if s := leadCol.row(j); !lead.IsNull(s) && f.failsLead(lead.Codes[s]) {
				continue
			}
		}
		for i, ci := range f.cols {
			col := &cols[ci]
			f.scratch[i] = col.Vec.Value(col.row(j))
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
