package engine

import (
	"fmt"
	"slices"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// This file exports the engine's operator kernels on rows, for
// consumers outside the xLM executor that hold rows rather than vector
// batches — the hand-composed layer benchmarks, the partial-aggregate
// merge. They are thin wrappers over the production kernels (the join
// index the executor and the OLAP fast path build, the aggregation
// states both fold into), so semantics (NULL handling, key equality,
// grouping order, float fold order, sort order) are identical across
// every consumer by construction.

// HashJoin is the streaming hash join on explicit key positions over
// rows: build rows are folded into a JoinIndex incrementally, then
// probe streams batches through it, preserving probe order (and build
// insertion order per key). NULL keys never match. Output rows are the
// probe row followed by the build row, every column of either kept.
type HashJoin struct {
	probeIdx, buildIdx []int
	idx                *JoinIndex // nil until the first build rows fix the width
	probe              *JoinProbe // nil until the first probe finishes the build
	keys               []*storage.Vector
	first              []int32
}

// NewHashJoin builds a join kernel: probeIdx are the key positions in
// probe-side rows, buildIdx the key positions in build-side rows.
func NewHashJoin(probeIdx, buildIdx []int) (*HashJoin, error) {
	if len(probeIdx) == 0 || len(probeIdx) != len(buildIdx) {
		return nil, fmt.Errorf("engine: hash join needs matching, non-empty key position lists")
	}
	return &HashJoin{probeIdx: append([]int(nil), probeIdx...), buildIdx: append([]int(nil), buildIdx...)}, nil
}

// Build folds a batch of build-side rows into the index, which keeps
// its own copy of them. Every Build precedes the first Probe, which
// finishes the index: a Build after it panics.
func (j *HashJoin) Build(rows [][]expr.Value) {
	if j.probe != nil {
		panic("engine: HashJoin.Build after Probe: the build side is complete once probing starts")
	}
	if len(rows) == 0 {
		return
	}
	if j.idx == nil {
		j.idx = NewJoinIndex(len(rows[0]), len(j.buildIdx), 0)
	}
	cols := make([]*storage.Vector, len(rows[0]))
	for c := range cols {
		cols[c] = columnOfRows(rows, c)
	}
	keys := make([]*storage.Vector, len(j.buildIdx))
	for k, c := range j.buildIdx {
		keys[k] = cols[c]
	}
	j.idx.Add(len(rows), cols, keys)
}

// Probe appends the join of the probe rows against the build side to
// dst and returns it.
func (j *HashJoin) Probe(dst, rows [][]expr.Value) [][]expr.Value {
	if j.idx == nil || len(rows) == 0 {
		return dst
	}
	if j.probe == nil {
		if err := j.idx.Finish(); err != nil {
			panic(err) // more than MaxInt32 build rows
		}
		j.probe = j.idx.Probe()
	}
	j.keys = j.keys[:0]
	for _, c := range j.probeIdx {
		j.keys = append(j.keys, columnOfRows(rows, c))
	}
	j.first = Sized(j.first, len(rows))
	j.probe.Lookup(len(rows), j.keys, j.first)
	slab := rowSlab{width: len(rows[0]) + len(j.idx.Cols), rows: len(rows)}
	for r, m := range j.first {
		for ; m >= 0; m = j.idx.After(m) {
			nr := slab.take(nil, nil)
			copy(nr, rows[r])
			for c, col := range j.idx.Cols {
				nr[len(rows[r])+c] = col.Value(int(m))
			}
			dst = append(dst, nr)
		}
	}
	return dst
}

// columnOfRows transposes column c of rows into a vector.
func columnOfRows(rows [][]expr.Value, c int) *storage.Vector {
	vals := make([]expr.Value, len(rows))
	for r, row := range rows {
		vals[r] = row[c]
	}
	return storage.VectorOf(vals)
}

// HashAggregator is the incremental grouping/aggregation kernel. Its
// one order rule: Result and Partials list the groups in the order
// they were first met, through Add, AddVectors or Absorb alike.
// Keys group by expr.Value.Identical — NULLs together, every NaN
// together, ints by value — and a group keeps its key's canonical form
// (expr.Value.Canonical). Float sums
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
	return &HashAggregator{op: newAggOp(slices.Clone(aggs), slices.Clone(groupIdx), slices.Clone(aggIdx))}, nil
}

// Add folds a batch of rows into the running group states. It copies
// the values it keeps (group keys, MIN/MAX candidates) and never
// retains a row, so the caller may overwrite the rows once Add returns
// (TestAggregatorDoesNotRetainRows).
func (a *HashAggregator) Add(rows [][]expr.Value) error { return a.op.add(rows) }

// Result finalises the aggregation: one row per group (group values
// then aggregates), groups in first-seen order. It is for callers whose
// integer SUMs cannot leave int64, and panics if one did; Answer is the
// sorted answer, which fails instead.
func (a *HashAggregator) Result() [][]expr.Value {
	rows, err := a.op.result()
	if err != nil {
		panic(err)
	}
	return rows
}

// SortRowsBy stably sorts rows in place by the given column positions
// with the engine's Sort-operator semantics (NULLs first, numerics
// numerically, strings lexicographically) and returns the slice. No
// answer is sorted through it (the answer tail ranks its keys: Order);
// it is the comparison order the tests hold answers to.
func SortRowsBy(rows [][]expr.Value, by []int) [][]expr.Value {
	op := &sortOp{idx: by, rows: rows}
	return op.result()
}
