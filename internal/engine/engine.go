// Package engine executes xLM ETL designs against the embedded store.
// It is Quarry's native execution platform, standing in for the
// Pentaho PDI runs of the paper's demonstration: the Design Deployer
// compiles a unified xLM design here to populate the deployed DW
// tables, and the benchmarks use the per-operation instrumentation to
// measure the demo's headline claim (integrated flows do less total
// work than separate flows).
//
// Two execution strategies share one set of operator kernels
// (kernels.go) and differ only in the column layouts they hand them:
// the pipelined executor plans, per edge, the subsequence of the
// node's logical Fields that anything downstream reads (planLayouts in
// pipeline.go) and ships only those columns; the materialising
// reference passes Fields themselves, deliberately full width.
//
//   - Run / RunWithOptions — the default batch-vectorised, pipelined,
//     DAG-parallel executor (pipeline.go). Operators stream fixed-size
//     row batches along the design's edges; streaming operators
//     (Extraction, Selection, Projection, Function, Union, Loader and
//     the probe side of Join) pipeline without buffering, blocking
//     operators (Join build, Aggregation, Sort) consume their input
//     incrementally, and independent DAG branches run concurrently on
//     a worker pool bounded by Options.Parallelism.
//   - RunMaterializing — the original single-threaded strategy:
//     operations run in topological order, each consuming its inputs'
//     fully buffered, full-width rows. It is the semantic reference
//     the pipelined path is tested against, and the baseline its
//     speedup is measured from.
//
// Both strategies produce byte-identical loaded tables, per-operation
// row counts and Loaded totals. Row counts and per-operation durations
// are recorded in either mode.
//
// Loads are transactional in both strategies: loaders stream into
// detached staging tables (replace mode) or delta tables (append
// mode), and the whole run is published in one storage.DB.CommitRun
// critical section — concurrent snapshot readers see all of a run or
// none of it, and a failed run leaves every live table byte-identical
// to its pre-run state. Against a disk-backed database that same
// commit is one crash-safe manifest rename, so durability rides on
// the existing commit point: the engine reads sources through the
// same ReadBatch cursors either way and needs no disk-specific code.
package engine

import (
	"context"
	"fmt"
	"time"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// OpStat is the execution record of one operation.
type OpStat struct {
	Node    string
	Type    xlm.OpType
	RowsIn  int64
	RowsOut int64
	// Duration is the operator's processing time: in the pipelined
	// executor the time spent computing batches (excluding waits on
	// upstream operators), in the materialising executor the
	// wall-clock time of the operation's turn.
	Duration time.Duration
}

// Result is the outcome of executing a design.
type Result struct {
	// Loaded maps loader target tables to the number of rows written.
	Loaded map[string]int64
	// Stats holds one entry per operation, in topological execution
	// order.
	Stats []OpStat
	// Elapsed is the total wall-clock execution time.
	Elapsed time.Duration
}

// RowsProcessed sums every operation's output rows: the "total work"
// metric the integration benchmarks compare.
func (r *Result) RowsProcessed() int64 {
	var total int64
	for _, s := range r.Stats {
		total += s.RowsOut
	}
	return total
}

// TotalLoaded sums rows written across loaders.
func (r *Result) TotalLoaded() int64 {
	var total int64
	for _, n := range r.Loaded {
		total += n
	}
	return total
}

// Run validates and executes the design against the database with the
// default pipelined executor (see RunWithOptions). Source Datastore
// nodes read the tables named by their "table" parameter; Loader nodes
// create-or-replace (default) or append to their target tables.
func Run(d *xlm.Design, db *storage.DB) (*Result, error) {
	return RunWithOptions(d, db, Options{})
}

// RunContext is Run under a context: cancellation aborts the run
// through the executor's first-error path and commits nothing.
func RunContext(ctx context.Context, d *xlm.Design, db *storage.DB) (*Result, error) {
	return RunWithOptionsContext(ctx, d, db, Options{})
}

// materialised rows of one operation.
type mat struct {
	fields []xlm.Field
	rows   [][]expr.Value
}

// RunMaterializing executes the design with the single-threaded,
// fully-materialising strategy: operations run in topological order,
// each consuming its inputs' buffered rows and producing its own. It
// is the reference implementation the pipelined executor is verified
// against and benchmarked from; production callers should prefer Run.
func RunMaterializing(d *xlm.Design, db *storage.DB) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	order, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	res := &Result{Loaded: map[string]int64{}}
	mats := map[string]*mat{}
	staged := newStagedLoads()
	start := time.Now()
	for _, n := range order {
		opStart := time.Now()
		inputs := d.Inputs(n.Name)
		inMats := make([]*mat, len(inputs))
		var rowsIn int64
		for i, in := range inputs {
			inMats[i] = mats[in.Name]
			rowsIn += int64(len(inMats[i].rows))
		}
		out, err := execNode(n, inMats, db, staged, res)
		if err != nil {
			return nil, fmt.Errorf("engine: node %q: %w", n.Name, err)
		}
		mats[n.Name] = out
		res.Stats = append(res.Stats, OpStat{
			Node:     n.Name,
			Type:     n.Type,
			RowsIn:   rowsIn,
			RowsOut:  int64(len(out.rows)),
			Duration: time.Since(opStart),
		})
		// Free inputs consumed by all their consumers to bound memory.
		for _, in := range inputs {
			if allConsumed(d, in.Name, mats) {
				mats[in.Name].rows = nil
			}
		}
	}
	// Commit point: publish every staged load — replace tables and
	// append deltas — in one critical section, mirroring the pipelined
	// executor.
	if err := staged.commit(db); err != nil {
		return nil, fmt.Errorf("engine: committing run: %w", err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// allConsumed reports whether every consumer of the node has already
// executed (present in mats).
func allConsumed(d *xlm.Design, name string, mats map[string]*mat) bool {
	for _, out := range d.Outputs(name) {
		if _, done := mats[out.Name]; !done {
			return false
		}
	}
	return true
}

func execNode(n *xlm.Node, inputs []*mat, db *storage.DB, staged *stagedLoads, res *Result) (*mat, error) {
	out := &mat{fields: n.Fields}
	switch n.Type {
	case xlm.OpDatastore:
		op, err := newDatastoreOp(n, db, n.Fields)
		if err != nil {
			return nil, err
		}
		out.rows = op.read(0, op.limit)
		return out, nil
	case xlm.OpExtraction:
		out.rows = inputs[0].rows
		return out, nil
	case xlm.OpSelection:
		op, err := newSelectionOp(n, inputs[0].fields)
		if err != nil {
			return nil, err
		}
		out.rows, err = op.filter(nil, inputs[0].rows)
		return out, err
	case xlm.OpProjection:
		op, err := newProjectionOp(n, inputs[0].fields, n.Fields)
		if err != nil {
			return nil, err
		}
		out.rows = op.apply(nil, inputs[0].rows)
		return out, nil
	case xlm.OpFunction:
		op, err := newFunctionOp(n, inputs[0].fields, n.Fields)
		if err != nil {
			return nil, err
		}
		out.rows, err = op.apply(nil, inputs[0].rows)
		return out, err
	case xlm.OpJoin:
		op, err := newJoinOp(n, inputs[0].fields, inputs[1].fields, n.Fields)
		if err != nil {
			return nil, err
		}
		op.addBuild(inputs[1].rows)
		out.rows = op.probe(nil, inputs[0].rows)
		return out, nil
	case xlm.OpAggregation:
		op, err := newAggregationOp(n, inputs[0].fields)
		if err != nil {
			return nil, err
		}
		if err := op.add(inputs[0].rows); err != nil {
			return nil, err
		}
		out.rows = op.result()
		return out, nil
	case xlm.OpUnion:
		for _, in := range inputs {
			out.rows = append(out.rows, in.rows...)
		}
		return out, nil
	case xlm.OpSort:
		op, err := newSortOp(n, inputs[0].fields)
		if err != nil {
			return nil, err
		}
		op.add(inputs[0].rows)
		out.rows = op.result()
		return out, nil
	case xlm.OpSurrogateKey:
		op, err := newSurrogateKeyOp(n, inputs[0].fields, n.Fields)
		if err != nil {
			return nil, err
		}
		out.rows = op.apply(nil, inputs[0].rows)
		return out, nil
	case xlm.OpLoader:
		op, err := newLoaderOp(n, inputs[0].fields, db, staged)
		if err != nil {
			return nil, err
		}
		if err := op.write(inputs[0].rows); err != nil {
			return nil, err
		}
		op.finish()
		res.Loaded[op.table] += op.written
		return out, nil
	}
	return nil, fmt.Errorf("unsupported operation type %q", n.Type)
}
