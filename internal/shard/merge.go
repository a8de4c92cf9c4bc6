package shard

import (
	"errors"
	"fmt"
	"slices"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/xlm"
)

// ErrEpochSkew marks a scatter whose shards answered at different
// warehouse versions (or with mismatched topology): the partials
// describe different logical databases and must never be merged. The
// gather treats it as retryable — shards commit runs in lockstep, so
// a fresh scatter normally lands on one epoch.
var ErrEpochSkew = errors.New("shard: partial answers disagree on epoch or topology")

// Merge validates per-shard partial responses and merges them into
// the final cube answer: columns, finalised rows (sorted by the group
// columns, exactly like the single-node executors), and the common
// epoch. resps must be in shard-index order — resps[i].ShardIndex ==
// i — which also fixes the group first-seen order deterministically;
// the final sort makes that order invisible in the answer, but
// determinism everywhere keeps debugging sane.
//
// Correctness: each shard's partial states are the kernel's own
// pre-finalisation states over its partition; engine.FinalizePartials
// merges them with the kernel's own algebra (exact float expansions
// included) and finalises and sorts once. The output is therefore
// byte-identical to a single node that folded every row — see the
// property suite in internal/olap and the e2e battery in
// internal/server.
func Merge(resps []*PartialResponse) (columns []string, rows [][]expr.Value, epoch uint64, err error) {
	if len(resps) == 0 {
		return nil, nil, 0, fmt.Errorf("shard: no partial answers to merge")
	}
	for i, r := range resps {
		if r == nil {
			return nil, nil, 0, fmt.Errorf("shard: missing partial answer for shard %d", i)
		}
	}
	first := resps[0]
	if first.ShardCount != len(resps) {
		return nil, nil, 0, fmt.Errorf("%w: %d answers for a %d-shard topology", ErrEpochSkew, len(resps), first.ShardCount)
	}
	for i, r := range resps {
		if r.ShardIndex != i || r.ShardCount != first.ShardCount {
			return nil, nil, 0, fmt.Errorf("%w: answer %d identifies as shard %d/%d, want %d/%d", ErrEpochSkew, i, r.ShardIndex, r.ShardCount, i, first.ShardCount)
		}
		if r.Epoch != first.Epoch {
			return nil, nil, 0, fmt.Errorf("%w: shard %d answered at epoch %d, shard 0 at %d", ErrEpochSkew, i, r.Epoch, first.Epoch)
		}
		// Shape is what the merge depends on, so it is verified apart
		// from the epoch, which normally catches version-skewed designs
		// first.
		if !slices.Equal(r.Columns, first.Columns) || r.GroupCols != first.GroupCols || !slices.Equal(r.Aggs, first.Aggs) {
			return nil, nil, 0, fmt.Errorf("%w: shard %d answered columns %q (%d grouped, aggregates %+v), shard 0 %q (%d, %+v)",
				ErrEpochSkew, i, r.Columns, r.GroupCols, r.Aggs, first.Columns, first.GroupCols, first.Aggs)
		}
	}
	// The shape every shard agreed on must be one a query can have: the
	// group columns, then one column per aggregate, of which there is at
	// least one.
	if first.GroupCols < 0 || len(first.Aggs) == 0 || len(first.Columns) != first.GroupCols+len(first.Aggs) {
		return nil, nil, 0, fmt.Errorf("shard: shard 0 answered %d columns for %d group columns and %d aggregates", len(first.Columns), first.GroupCols, len(first.Aggs))
	}
	aggs := make([]xlm.AggSpec, len(first.Aggs))
	for i, a := range first.Aggs {
		aggs[i] = xlm.AggSpec{Func: a.Func, Out: a.Out}
	}
	parts := make([]engine.Cells, len(resps))
	for i, r := range resps {
		if parts[i], err = r.DecodeGroups(); err != nil {
			return nil, nil, 0, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if rows, err = engine.FinalizePartials(first.GroupCols, aggs, parts...); err != nil {
		return nil, nil, 0, fmt.Errorf("shard: merging partial answers: %w", err)
	}
	return first.Columns, rows, first.Epoch, nil
}
