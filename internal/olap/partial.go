package olap

import (
	"context"

	"quarry/internal/engine"
	"quarry/internal/xlm"
)

// Partial is a shard-local, pre-finalisation answer to a cube query:
// the hash aggregator's mergeable group states over this node's
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
	// Aggs are the planned aggregate specs, in output order, and for a
	// dice the hidden carat aggregates after them.
	Aggs []xlm.AggSpec
	// Groups are the mergeable group states, one cell per group in
	// first-seen order.
	Groups engine.Cells
	// Dice is the query's dice, cut after the merge; nil when undiced.
	Dice *engine.Dice
	// Version is the warehouse version of the snapshot answered from
	// — the shard protocol's epoch.
	Version uint64
	// Class names the answer source (ClassFast, ClassDice or
	// ClassMatAgg), as Result.Class does.
	Class string
}

// QueryPartial answers the cube query as mergeable partial aggregates
// instead of a finalised result. It takes the route Query takes
// (answerPlanned) — the pattern recorded, the cells from a materialized
// aggregate or from the fold — but stops before the answer tail: no
// dice, no AVG division, no zero-row injection for global aggregates,
// no sort. Those happen exactly once, after the merge.
//
// A diced query's cells carry its hidden carat aggregates, and every
// cell is shipped: merged cells are the cells a single node folds, and
// the diamond is a function of them, so the gather cuts it after its
// merge. Only the sign check of a SUM carat runs here, over this node's
// cells, so a negative or NaN carat value fails the query where it
// lies, with the single node's error.
//
// Cells served from a materialized aggregate are those of a kernel the
// entry's kept cells were merged into (engine.MergeCells), at the
// query's grain: the kernel's own states over this node's rows, in the
// order a scan meets their groups.
func (e *Engine) QueryPartial(q CubeQuery) (*Partial, error) {
	return e.QueryPartialContext(context.Background(), q)
}

// QueryPartialContext is QueryPartial under a context (cancellation
// stops the scan at the next batch boundary).
func (e *Engine) QueryPartialContext(ctx context.Context, q CubeQuery) (*Partial, error) {
	p, snap, err := e.planned(q)
	if err != nil {
		return nil, err
	}
	_, part, err := e.answerPlanned(ctx, p, snap, true)
	return part, err
}
