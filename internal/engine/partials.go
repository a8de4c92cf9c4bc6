package engine

import (
	"fmt"

	"quarry/internal/expr"
	"quarry/internal/xlm"
)

// Partial aggregation: the normal aggregation kernel runs over some
// partition of the rows — a shard's fact partition on the
// scatter-gather path, the groups of a finer materialized aggregate in
// the OLAP store — and exports its pre-finalisation group states
// (AggPartial). FinalizePartials Absorbs any number of such exports
// into a fresh kernel and finalises (aggregationOp.result) exactly
// once, over merged states that are value-identical to what a single
// node folding all rows would hold — COUNT/int-SUM by integer
// addition (wrapping, like the fold: whether an int SUM overflowed is
// decided at finalisation, from the whole multiset), float SUM by exact
// expansion merge (FloatSum), MIN/MAX by the same Compare the fold uses
// — so the merged answer is byte-identical to the single-node one by
// construction.

// MeasurePartial is one aggregate's mergeable state for one group.
type MeasurePartial struct {
	Count    int64
	IntSum   int64
	SumIsInt bool
	// Float-sum expansion (see FloatSum.Export).
	SumParts      []float64
	SumSpecial    float64
	SumHasSpecial bool
	Min           expr.Value
	Max           expr.Value
}

// AggPartial is one group's mergeable aggregation state: the group key
// values and one MeasurePartial per declared aggregate.
type AggPartial struct {
	Group    []expr.Value
	Measures []MeasurePartial
}

// Partials exports the aggregator's current group states in
// first-seen order. A global aggregate that saw zero rows exports
// zero partials: the zero-rows row (COUNT 0, NULL sums) is a
// finalisation artifact and is injected exactly once, by the merge
// side's Result.
func (a *HashAggregator) Partials() []AggPartial {
	o := a.op
	out := make([]AggPartial, 0, len(o.orderKeys))
	for _, h := range o.orderKeys {
		for st := o.states[h]; st != nil; st = st.next {
			p := AggPartial{
				Group:    append([]expr.Value(nil), st.groupVals...),
				Measures: make([]MeasurePartial, len(o.aggs)),
			}
			for i := range o.aggs {
				m := &p.Measures[i]
				m.Count = st.counts[i]
				m.IntSum = st.intSums[i]
				m.SumIsInt = st.sumIsInt[i]
				m.SumParts, m.SumSpecial, m.SumHasSpecial = st.settle(i).Export()
				m.Min = st.mins[i]
				m.Max = st.maxs[i]
			}
			out = append(out, p)
		}
	}
	return out
}

// Absorb merges exported partials into this aggregator's running
// states, as if the rows behind them had been Added here. New groups
// are created in absorption order, so absorbing shard partials in
// shard-index order gives a deterministic (if arbitrary) pre-sort
// emission order; callers that need a canonical order sort the
// finalised rows, exactly like the single-node paths do.
func (a *HashAggregator) Absorb(ps []AggPartial) error {
	o := a.op
	for pi := range ps {
		p := &ps[pi]
		if len(p.Group) != len(o.gIdx) {
			return fmt.Errorf("engine: partial has %d group values, aggregator expects %d", len(p.Group), len(o.gIdx))
		}
		if len(p.Measures) != len(o.aggs) {
			return fmt.Errorf("engine: partial has %d measures, aggregator expects %d", len(p.Measures), len(o.aggs))
		}
		st := o.findOrCreate(p.Group)
		for i := range o.aggs {
			m := &p.Measures[i]
			st.counts[i] += m.Count
			st.intSums[i] += m.IntSum
			st.sumIsInt[i] = st.sumIsInt[i] && m.SumIsInt
			st.sums[i].Merge(ImportFloatSum(m.SumParts, m.SumSpecial, m.SumHasSpecial))
			// MIN/MAX merge with the fold's semantics: NULL means "no
			// value yet".
			if !m.Min.IsNull() {
				keepExtreme(&st.mins[i], m.Min, true)
			}
			if !m.Max.IsNull() {
				keepExtreme(&st.maxs[i], m.Max, false)
			}
		}
	}
	return nil
}

// findOrCreate locates the state for a group key (same FNV hash and
// identity rules as the add fold), creating it in first-seen order.
func (o *aggregationOp) findOrCreate(group []expr.Value) *aggState {
	h := uint64(1469598103934665603)
	for _, v := range group {
		h = h*1099511628211 ^ v.Hash()
	}
chain:
	for st := o.states[h]; st != nil; st = st.next {
		for k := range group {
			if !valuesIdentical(st.groupVals[k], group[k]) {
				continue chain
			}
		}
		return st
	}
	return o.newState(h, func(k int) expr.Value { return group[k] })
}

// FinalizePartials merges exported partial states and finalises them
// once: a fresh kernel Absorbs every batch in argument order, Result
// finalises, and the rows are sorted by their group columns exactly
// like the single-node executors sort theirs. Each partial carries
// groupCols group values followed by one state per aggregate of aggs
// (only Func is read). It is the one place partial states become an
// answer — the shard gather and the materialized-aggregate store both
// end here. A global aggregate (groupCols == 0) over no partials still
// yields its single COUNT 0 / NULL row.
func FinalizePartials(groupCols int, aggs []xlm.AggSpec, parts ...[]AggPartial) ([][]expr.Value, error) {
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
	for _, ps := range parts {
		if err := agg.Absorb(ps); err != nil {
			return nil, err
		}
	}
	rows, err := agg.Finalize()
	if err != nil {
		return nil, err
	}
	return SortRowsBy(rows, groupIdx), nil
}
