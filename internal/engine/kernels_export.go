package engine

import (
	"fmt"

	"quarry/internal/expr"
	"quarry/internal/xlm"
)

// This file exports the engine's vectorized operator kernels for
// consumers outside the xLM executor — primarily the OLAP fast path,
// which plans star joins and hash aggregation directly over storage
// cursors without constructing a design. The exported types are thin
// wrappers over the same kernel state the two xLM execution strategies
// use, so semantics (NULL handling, grouping order, float fold order,
// sort order) are identical across all three consumers by
// construction.

// HashJoin is the streaming hash-join kernel on explicit key
// positions: build rows are folded into the hash table incrementally,
// then probe streams batches through it, preserving probe order (and
// build insertion order per key). NULL keys never match. It is the
// xLM Join kernel with the identity layout on both sides — every
// column of either input is kept — fixed when the first rows arrive,
// since positions, not schemas, are all the caller declares.
type HashJoin struct {
	op *joinOp
}

// NewHashJoin builds a join kernel: probeIdx are the key positions in
// probe-side rows, buildIdx the key positions in build-side rows.
func NewHashJoin(probeIdx, buildIdx []int) (*HashJoin, error) {
	if len(probeIdx) == 0 || len(probeIdx) != len(buildIdx) {
		return nil, fmt.Errorf("engine: hash join needs matching, non-empty key position lists")
	}
	return &HashJoin{op: &joinOp{
		lIdx:  append([]int(nil), probeIdx...),
		rIdx:  append([]int(nil), buildIdx...),
		build: map[uint64][][]expr.Value{},
	}}, nil
}

// identityLayout is the positions 0..n-1.
func identityLayout(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Build folds a batch of build-side rows into the hash table, which
// keeps its own copy of them.
func (j *HashJoin) Build(rows [][]expr.Value) {
	if j.op.rKeep == nil && len(rows) > 0 {
		j.op.rKeep = identityLayout(len(rows[0]))
		j.op.nR = len(rows[0])
	}
	j.op.addBuild(rows)
}

// Probe appends the join of the probe rows against the build table to
// dst and returns it. Output rows are probe row ++ build row.
func (j *HashJoin) Probe(dst, rows [][]expr.Value) [][]expr.Value {
	if j.op.lCp == nil && len(rows) > 0 {
		j.op.lCp = identityLayout(len(rows[0]))
	}
	return j.op.probe(dst, rows)
}

// HashAggregator is the incremental grouping/aggregation kernel:
// groups emit in first-seen order (NULLs group together). Float sums
// fold through an exact expansion (FloatSum), so SUM/AVG bits depend
// only on the multiset of input values — not arrival order and not
// how rows were partitioned across aggregators merged via
// Partials/Absorb.
type HashAggregator struct {
	op *aggregationOp
}

// NewHashAggregator builds an aggregation kernel. groupIdx are the
// group-key positions in input rows; aggs declares the aggregates
// (Func SUM/AVG/MIN/MAX/COUNT) and aggIdx the matching input
// positions, with -1 meaning COUNT(*).
func NewHashAggregator(groupIdx []int, aggs []xlm.AggSpec, aggIdx []int) (*HashAggregator, error) {
	if len(aggs) != len(aggIdx) {
		return nil, fmt.Errorf("engine: hash aggregator needs one input position per aggregate")
	}
	for i, a := range aggs {
		switch a.Func {
		case "SUM", "AVG", "MIN", "MAX", "COUNT":
		default:
			return nil, fmt.Errorf("engine: unknown aggregate %q", a.Func)
		}
		if aggIdx[i] == -1 && a.Func != "COUNT" {
			return nil, fmt.Errorf("engine: aggregate %s requires an input column", a.Func)
		}
	}
	return &HashAggregator{op: &aggregationOp{
		group:  make([]string, len(groupIdx)),
		aggs:   append([]xlm.AggSpec(nil), aggs...),
		gIdx:   append([]int(nil), groupIdx...),
		aIdx:   append([]int(nil), aggIdx...),
		states: map[uint64][]*aggState{},
	}}, nil
}

// Add folds a batch of rows into the running group states. It copies
// the values it keeps (group keys, MIN/MAX candidates) and never
// retains a row, so the caller may overwrite the rows once Add returns
// — the OLAP fast path refills one slab for every batch
// (TestAggregatorDoesNotRetainRows).
func (a *HashAggregator) Add(rows [][]expr.Value) error { return a.op.add(rows) }

// Result finalises the aggregation: one row per group (group values
// then aggregates), groups in first-seen order.
func (a *HashAggregator) Result() [][]expr.Value { return a.op.result() }

// SortRowsBy stably sorts rows in place by the given column positions
// with the engine's Sort-operator semantics (NULLs first, numerics
// numerically, strings lexicographically) and returns the slice.
func SortRowsBy(rows [][]expr.Value, by []int) [][]expr.Value {
	op := &sortOp{idx: by, rows: rows}
	return op.result()
}
