package olap

import (
	"context"
	"fmt"

	"quarry/internal/engine"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// Partial is a shard-local, pre-finalisation answer to a cube query:
// the hash aggregator's mergeable per-group states over this node's
// fact partition, plus the result shape needed to merge and finalise
// elsewhere (see internal/shard). Because the states carry exact
// float-sum expansions, merging any partition of the fact's rows and
// finalising once yields bytes identical to a single node that folded
// every row itself.
type Partial struct {
	// Columns is the final result header (group columns first, then
	// aggregate outputs), identical to Result.Columns.
	Columns []string
	// GroupCols is how many leading Columns are group keys.
	GroupCols int
	// Aggs are the planned aggregate specs, in output order.
	Aggs []xlm.AggSpec
	// Groups are the mergeable per-group states, in first-seen order.
	Groups []engine.AggPartial
	// Version is the warehouse version of the snapshot answered from
	// — the shard protocol's epoch.
	Version uint64
}

// QueryPartial answers the cube query as mergeable partial aggregates
// instead of a finalised result. It runs the same planner and the same
// build/probe pipeline as Query, but stops before finalisation: no
// AVG division, no zero-row injection for global aggregates, no sort.
// Those happen exactly once, after the merge.
//
// Diamond dicing is refused: a slice's carat sums cells over the whole
// fact, so the diamond can only be cut after every shard's states are
// merged, and the gather does not run that step — a diced query is not
// distributive over fact partitions.
//
// The materialized-aggregate store is bypassed — partials must be the
// kernel's own states over base fact rows, not a rewritten form.
func (e *Engine) QueryPartial(q CubeQuery) (*Partial, error) {
	return e.QueryPartialContext(context.Background(), q)
}

// QueryPartialContext is QueryPartial under a context (cancellation
// stops the scan at the next batch boundary).
func (e *Engine) QueryPartialContext(ctx context.Context, q CubeQuery) (*Partial, error) {
	p, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	if p.dice != nil {
		return nil, fmt.Errorf("olap: diamond dice is not distributive over shards; run it on a single node")
	}
	snap, err := e.db.Snapshot(p.tables...)
	if err != nil {
		return nil, err
	}
	groups, err := e.partialOn(ctx, p, snap)
	if err != nil {
		return nil, err
	}
	return &Partial{
		Columns:   p.resultColumns(),
		GroupCols: len(p.groupBy),
		Aggs:      p.aggs,
		Groups:    groups,
		Version:   snap.Version(),
	}, nil
}

// partialOn runs a dice-free plan's build and probe phases over a
// snapshot and returns the aggregation kernel's pre-finalisation group
// states, in first-seen order. The shard partial answer and every
// materialized aggregate are made here, so both hold the same states a
// single node folding the same rows would finalise.
func (e *Engine) partialOn(ctx context.Context, p *starPlan, snap *storage.Snapshot) ([]engine.AggPartial, error) {
	sides, err := e.buildDimSides(ctx, p, snap)
	if err != nil {
		return nil, err
	}
	fold, err := newStarFold(p)
	if err != nil {
		return nil, err
	}
	if err := e.probeStar(ctx, p, snap, sides, fold.add); err != nil {
		return nil, err
	}
	return fold.agg.Partials(), nil
}
