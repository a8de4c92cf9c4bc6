package shard

import (
	"errors"
	"fmt"

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
	first := resps[0]
	if first.ShardCount != len(resps) {
		return nil, nil, 0, fmt.Errorf("%w: %d answers for a %d-shard topology", ErrEpochSkew, len(resps), first.ShardCount)
	}
	for i, r := range resps {
		if r == nil {
			return nil, nil, 0, fmt.Errorf("shard: missing partial answer for shard %d", i)
		}
		if r.ShardIndex != i || r.ShardCount != first.ShardCount {
			return nil, nil, 0, fmt.Errorf("%w: answer %d identifies as shard %d/%d, want %d/%d", ErrEpochSkew, i, r.ShardIndex, r.ShardCount, i, first.ShardCount)
		}
		if r.Epoch != first.Epoch {
			return nil, nil, 0, fmt.Errorf("%w: shard %d answered at epoch %d, shard 0 at %d", ErrEpochSkew, i, r.Epoch, first.Epoch)
		}
		if err := sameShape(first, r, i); err != nil {
			return nil, nil, 0, err
		}
	}
	aggs := make([]xlm.AggSpec, len(first.Aggs))
	for i, a := range first.Aggs {
		aggs[i] = xlm.AggSpec{Func: a.Func, Out: a.Out}
	}
	parts := make([][]engine.AggPartial, len(resps))
	for i, r := range resps {
		if parts[i], err = r.DecodeGroups(); err != nil {
			return nil, nil, 0, err
		}
	}
	if rows, err = engine.FinalizePartials(first.GroupCols, aggs, parts...); err != nil {
		return nil, nil, 0, fmt.Errorf("shard: merging partial answers: %w", err)
	}
	return first.Columns, rows, first.Epoch, nil
}

// sameShape checks a response declares the same result shape as the
// first one. A mismatch here means version-skewed designs, which the
// epoch check normally catches first — but shape is what the merge
// actually depends on, so it is verified independently.
func sameShape(a, b *PartialResponse, i int) error {
	if len(a.Columns) != len(b.Columns) || a.GroupCols != b.GroupCols || len(a.Aggs) != len(b.Aggs) {
		return fmt.Errorf("%w: shard %d answered a different result shape", ErrEpochSkew, i)
	}
	for k := range a.Columns {
		if a.Columns[k] != b.Columns[k] {
			return fmt.Errorf("%w: shard %d column %d is %q, shard 0 has %q", ErrEpochSkew, i, k, b.Columns[k], a.Columns[k])
		}
	}
	for k := range a.Aggs {
		if a.Aggs[k] != b.Aggs[k] {
			return fmt.Errorf("%w: shard %d aggregate %d is %+v, shard 0 has %+v", ErrEpochSkew, i, k, b.Aggs[k], a.Aggs[k])
		}
	}
	return nil
}
