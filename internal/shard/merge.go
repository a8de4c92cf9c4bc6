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

// AnswerError is the merged answer's own failure, as opposed to a
// frame, shape or epoch fault: an int SUM that leaves int64 only once
// the shards' sums add up, say. A single node folding every row fails
// the same query with the same message.
type AnswerError struct{ Err error }

func (e AnswerError) Error() string { return e.Err.Error() }
func (e AnswerError) Unwrap() error { return e.Err }

// Merge validates per-shard partial responses and merges them into
// the final cube answer: columns, finalised rows (sorted by the group
// columns, exactly like the single-node executors), and the common
// epoch. resps must be in shard-index order — resps[i].ShardIndex ==
// i — which also fixes the group first-seen order deterministically;
// the final sort makes that order invisible in the answer, but
// determinism everywhere keeps debugging sane.
//
// Correctness: each shard's partial states are the kernel's own
// pre-finalisation states over its partition; engine.MergeCells merges
// them with the kernel's own algebra (exact float expansions included)
// and the merged kernel ends in the single node's answer tail
// (engine.HashAggregator.Answer), which cuts a dice's diamond, then
// finalises and sorts once. The merged cells are the cells a single
// node folds — every diced column is grouped by, and the carats are
// exact hidden states — so the output is byte-identical to a single
// node that folded every row, diced or not — see the property suite in
// internal/olap and the e2e battery in internal/server. A failure of
// that tail is an AnswerError.
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
		if !slices.Equal(r.Columns, first.Columns) || r.GroupCols != first.GroupCols || !slices.Equal(r.Aggs, first.Aggs) || (r.Dice != nil || first.Dice != nil) && fmt.Sprint(r.Dice) != fmt.Sprint(first.Dice) {
			return nil, nil, 0, fmt.Errorf("%w: shard %d answered columns %q (%d grouped, aggregates %+v, dice %+v), shard 0 %q (%d, %+v, %+v)",
				ErrEpochSkew, i, r.Columns, r.GroupCols, r.Aggs, r.Dice, first.Columns, first.GroupCols, first.Aggs, first.Dice)
		}
	}
	// The shape every shard agreed on must be one a query can have: the
	// group columns, then one column per aggregate, of which there is at
	// least one, and a dice's hidden aggregates, which name no column.
	hidden, err := checkDice(first.Dice, first.GroupCols, first.Aggs)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("shard: shard 0 answered a %w", err)
	}
	if visible := len(first.Aggs) - hidden; first.GroupCols < 0 || visible <= 0 || len(first.Columns) != first.GroupCols+visible {
		return nil, nil, 0, fmt.Errorf("shard: shard 0 answered %d columns for %d group columns and %d aggregates", len(first.Columns), first.GroupCols, len(first.Aggs)-hidden)
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
	merged, err := engine.MergeCells(first.GroupCols, aggs, parts...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("shard: merging partial answers: %w", err)
	}
	if rows, err = merged.Answer(first.Dice); err != nil {
		return nil, nil, 0, AnswerError{err}
	}
	return first.Columns, rows, first.Epoch, nil
}
