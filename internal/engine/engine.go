// Package engine executes xLM ETL designs against the embedded store.
// It is Quarry's native execution platform, standing in for the
// Pentaho PDI runs of the paper's demonstration: the Design Deployer
// compiles a unified xLM design here to populate the deployed DW
// tables, and the benchmarks use the per-operation instrumentation to
// measure the demo's headline claim (integrated flows do less total
// work than separate flows).
//
// Vector kernels run in production, row kernels are the reference:
//
//   - Run / RunWithOptions — the production executor (pipeline.go):
//     pipelined, DAG-parallel, on typed column vectors. Storage pages
//     flow as batches of Columns, one per column of the edge's planned
//     layout (planLayouts ships only the columns something downstream
//     reads), each a vector read whole or through a selection;
//     Selection, Projection, Function, Join and Aggregation run the
//     vector kernels of vkernels.go — the join index (JoinIndex), the
//     vector filter (VectorFilter) and the aggregation's vector entry
//     (AddVectors) are the ones the OLAP fast path runs too. A
//     Selection and a Join pick rows by selection; only the Loader
//     gathers a selected column into a vector of its own. Rows exist
//     only where an operator is defined on them: Sort and
//     SurrogateKey, which transpose a batch to rows and back.
//     Streaming operators pipeline without buffering, blocking
//     operators (Join build, Aggregation, Sort) consume their input
//     incrementally, and independent DAG branches run concurrently on
//     a worker pool bounded by Options.Parallelism.
//   - RunMaterializing — the reference: single-threaded, operations in
//     topological order, each consuming its inputs' fully buffered,
//     full-width rows through the row kernels of kernels.go
//     (hashKey/keysEqual join, row aggregation fold, row slabs). No
//     production path calls it; it is what the executor is tested
//     against, and the star-flow oracle of the OLAP layer runs on it
//     so that no oracle shares a join, filter or aggregate entry point
//     with the paths it checks.
//
// Both produce byte-identical loaded tables (value kinds included),
// per-operation row counts and Loaded totals, and fail with the same
// error. Row counts and per-operation durations are recorded in either
// mode.
//
// A loader replaces its table, and a design has one loader per table
// (xlm.Design.Validate). Loads are transactional in both strategies:
// loaders stream into detached staging tables, and the whole run is
// published in one storage.DB.Publish critical section — concurrent
// snapshot readers see all of a run or none of it, and a failed run
// leaves every live table byte-identical to its pre-run state. Against
// a disk-backed database that same commit is one crash-safe manifest
// rename, so durability rides on the existing commit point: the engine
// reads sources through the same storage cursors either way and needs
// no disk-specific code.
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
// replace their target tables.
func Run(d *xlm.Design, db *storage.DB) (*Result, error) {
	return RunWithOptions(d, db, Options{})
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
	return RunMaterializingContext(context.Background(), d, db)
}

// RunMaterializingContext is RunMaterializing under a context, checked
// between operations and every refChunk rows inside one: cancellation
// returns the context's error and commits nothing.
func RunMaterializingContext(ctx context.Context, d *xlm.Design, db *storage.DB) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	order, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	res := &Result{Loaded: map[string]int64{}}
	mats := map[string]*mat{}
	staged := &stagedLoads{}
	start := time.Now()
	for _, n := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opStart := time.Now()
		inputs := d.Inputs(n.Name)
		inMats := make([]*mat, len(inputs))
		var rowsIn int64
		for i, in := range inputs {
			inMats[i] = mats[in.Name]
			rowsIn += int64(len(inMats[i].rows))
		}
		out, err := execNode(ctx, n, inMats, db, staged, res)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
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
	// Commit point: publish every staged load in one critical section,
	// mirroring the pipelined executor.
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

// refChunk is how many rows the reference hands a kernel between
// context checks.
const refChunk = 4096

// inChunks calls fn on the rows a refChunk at a time, checking ctx
// before each. The kernels are incremental, so the chunking shows in
// nothing but how soon a cancelled run stops.
func inChunks(ctx context.Context, rows [][]expr.Value, fn func([][]expr.Value) error) error {
	for start := 0; start < len(rows); start += refChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(rows[start:min(start+refChunk, len(rows))]); err != nil {
			return err
		}
	}
	return nil
}

func execNode(ctx context.Context, n *xlm.Node, inputs []*mat, db *storage.DB, staged *stagedLoads, res *Result) (*mat, error) {
	out := &mat{fields: n.Fields}
	var in [][]expr.Value
	if len(inputs) > 0 {
		in = inputs[0].rows
	}
	// A streaming kernel is a step appending the rows it makes of a run
	// of its input; the chunks of input 0 go through it at the end.
	var step func(dst, part [][]expr.Value) ([][]expr.Value, error)
	switch n.Type {
	case xlm.OpDatastore:
		op, err := newDatastoreOp(n, db, n.Fields)
		if err != nil {
			return nil, err
		}
		cur := op.view.Cursor(nil)
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rows := op.read(cur, refChunk)
			if rows == nil {
				return out, nil
			}
			out.rows = append(out.rows, rows...)
		}
	case xlm.OpExtraction:
		out.rows = in
		return out, nil
	case xlm.OpSelection:
		op, err := newSelectionOp(n, inputs[0].fields)
		if err != nil {
			return nil, err
		}
		step = op.filter
	case xlm.OpProjection:
		op, err := newProjectionOp(n, inputs[0].fields, n.Fields)
		if err != nil {
			return nil, err
		}
		step = func(dst, part [][]expr.Value) ([][]expr.Value, error) { return op.apply(dst, part), nil }
	case xlm.OpFunction:
		op, err := newFunctionOp(n, inputs[0].fields, n.Fields)
		if err != nil {
			return nil, err
		}
		step = op.apply
	case xlm.OpJoin:
		op, err := newJoinOp(n, inputs[0].fields, inputs[1].fields, n.Fields)
		if err != nil {
			return nil, err
		}
		if err := inChunks(ctx, inputs[1].rows, func(part [][]expr.Value) error {
			op.addBuild(part)
			return nil
		}); err != nil {
			return nil, err
		}
		step = func(dst, part [][]expr.Value) ([][]expr.Value, error) { return op.probe(dst, part), nil }
	case xlm.OpAggregation:
		op, err := newAggregationOp(n, inputs[0].fields)
		if err != nil {
			return nil, err
		}
		if err := inChunks(ctx, in, op.add); err != nil {
			return nil, err
		}
		out.rows, err = op.result()
		return out, err
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
		op.add(in)
		out.rows = op.result()
		return out, nil
	case xlm.OpSurrogateKey:
		op, err := newSurrogateKeyOp(n, inputs[0].fields, n.Fields)
		if err != nil {
			return nil, err
		}
		step = func(dst, part [][]expr.Value) ([][]expr.Value, error) { return op.apply(dst, part), nil }
	case xlm.OpLoader:
		op, err := newLoaderOp(n, inputs[0].fields, staged)
		if err != nil {
			return nil, err
		}
		if err := inChunks(ctx, in, op.write); err != nil {
			return nil, err
		}
		op.finish()
		res.Loaded[op.table] = op.written
		return out, nil
	default:
		return nil, fmt.Errorf("unsupported operation type %q", n.Type)
	}
	return out, inChunks(ctx, in, func(part [][]expr.Value) (err error) {
		out.rows, err = step(out.rows, part)
		return err
	})
}
