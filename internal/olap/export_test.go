package olap

import (
	"context"

	"quarry/internal/storage"
)

// MaxPatterns is the query-log bound, for the external tests.
const MaxPatterns = maxPatterns

// Snapshot captures the consistent view the query would read: the
// fact table plus every dimension table the plan joins.
func (e *Engine) Snapshot(q CubeQuery) (*storage.Snapshot, error) {
	_, snap, err := e.planned(q)
	return snap, err
}

// QuerySnapshot answers the query on the fast path against an existing
// snapshot, which must cover the tables the query reads.
func (e *Engine) QuerySnapshot(q CubeQuery, snap *storage.Snapshot) (*Result, error) {
	p, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	res, _, err := e.answerPlanned(context.Background(), p, snap, false)
	return res, err
}

// MatAgg returns the attached materialized-aggregate store, if any.
func (e *Engine) MatAgg() *MatAgg { return e.mat }
