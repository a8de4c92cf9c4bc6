package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// DefaultBatchSize is the number of rows per pipeline batch.
const DefaultBatchSize = 1024

// pipeDepth is the per-edge buffer of in-flight batches on bounded
// (single-consumer) edges.
const pipeDepth = 4

// Options tunes the pipelined executor.
type Options struct {
	// Parallelism bounds how many operators may process batches
	// concurrently (the worker pool size). Zero or negative uses
	// GOMAXPROCS. Parallelism 1 executes one operator at a time and is
	// byte-identical to RunMaterializing's output — as is any other
	// setting: per-edge batch order is deterministic, so parallelism
	// never changes results, only wall-clock time.
	Parallelism int
	// BatchSize is the number of rows per batch streamed between
	// operators: a Datastore cuts each page into batches of at most this
	// many, and a blocking operator cuts its result likewise (a
	// Selection passes on fewer, a fanning-out Join more). Zero or
	// negative uses DefaultBatchSize.
	BatchSize int
	// LoadFilter, when non-nil, is consulted once per loader target
	// with the table name and its column names (in table layout
	// order); a non-nil returned predicate is applied to every row at
	// the load boundary, after remapping to the table layout, and rows
	// it rejects are dropped before they reach storage. An error from
	// the hook fails the run. This is the shard partitioning hook: a
	// fact shard loads only the rows its hash partition owns while
	// every operator upstream of the loader stays byte-identical to
	// the single-node run.
	LoadFilter func(table string, cols []string) (func(row []expr.Value) bool, error)
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	return o
}

// source is the consumer side of an edge: next returns the following
// batch, or false at end-of-stream (or abort).
type source interface {
	next() (*Batch, bool)
}

// sink is the producer side of an edge.
type sink interface {
	send(*Batch) bool // false when the run has been aborted
	close()
}

// pipeEdge is a bounded single-consumer edge. Producers block when the
// consumer falls behind (backpressure), which keeps the memory of a
// streaming pipeline segment bounded at pipeDepth batches.
type pipeEdge struct {
	ch    chan *Batch
	abort <-chan struct{}
}

func (e *pipeEdge) send(b *Batch) bool {
	select {
	case e.ch <- b:
		return true
	case <-e.abort:
		return false
	}
}

func (e *pipeEdge) close() { close(e.ch) }

func (e *pipeEdge) next() (*Batch, bool) {
	select {
	case b, ok := <-e.ch:
		return b, ok
	case <-e.abort:
		return nil, false
	}
}

// fanEdge is one consumer's private cursor over a multi-consumer
// node's output. Sends never block: a slow consumer buffers batches
// instead of stalling its siblings. That is what makes
// order-preserving consumers deadlock-free on shared subplans — a
// Union draining its first input to completion, or a Join building
// from its right input before probing, must not be able to wedge a
// shared upstream producer. Worst-case buffering equals what the
// materialising executor held anyway; consumed slots are released
// eagerly.
type fanEdge struct {
	mu      sync.Mutex
	cond    sync.Cond
	items   []*Batch
	head    int
	closed  bool
	aborted bool
}

func newFanEdge() *fanEdge {
	e := &fanEdge{}
	e.cond.L = &e.mu
	return e
}

func (e *fanEdge) send(b *Batch) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.aborted {
		return false
	}
	e.items = append(e.items, b)
	e.cond.Signal()
	return true
}

func (e *fanEdge) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *fanEdge) forceClose() {
	e.mu.Lock()
	e.aborted = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *fanEdge) next() (*Batch, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.aborted {
			return nil, false
		}
		if e.head < len(e.items) {
			b := e.items[e.head]
			e.items[e.head] = nil // release the slot
			e.head++
			return b, true
		}
		if e.closed {
			return nil, false
		}
		e.cond.Wait()
	}
}

// nodeStats accumulates one operator's instrumentation. Today each
// runner goroutine is the sole writer of its own counters (the main
// goroutine reads only after wg.Wait), so plain fields would do; they
// are atomic deliberately, so that future intra-operator parallelism
// (a partitioned probe or scan writing from several goroutines)
// cannot silently race them.
type nodeStats struct {
	rowsIn  atomic.Int64
	rowsOut atomic.Int64
	nanos   atomic.Int64
}

// executor owns one pipelined run.
type executor struct {
	opts Options
	db   *storage.DB

	sem   chan struct{} // worker-pool tokens
	abort chan struct{} // closed on first error
	fails sync.Once
	err   error
	fans  []*fanEdge

	loadedMu sync.Mutex
	loaded   map[string]int64

	// staged collects completed replace-mode loads; the run commits
	// them all at once on success (storage.DB.PublishAll).
	staged *stagedLoads
}

func (ex *executor) fail(err error) {
	ex.fails.Do(func() {
		ex.err = err
		close(ex.abort)
		for _, f := range ex.fans {
			f.forceClose()
		}
	})
}

func (ex *executor) failed() bool {
	select {
	case <-ex.abort:
		return true
	default:
		return false
	}
}

func (ex *executor) addLoaded(table string, n int64) {
	ex.loadedMu.Lock()
	ex.loaded[table] += n
	ex.loadedMu.Unlock()
}

// errAborted signals that another operator already failed; it is never
// surfaced to the caller.
var errAborted = errors.New("engine: run aborted")

// runner executes one operation as a goroutine over its edges.
type runner struct {
	ex    *executor
	node  *xlm.Node
	infds [][]xlm.Field // physical layouts of the input edges, in edge order
	outfd []xlm.Field   // physical layout of the rows this operation emits
	ins   []source
	outs  []sink
	stats *nodeStats

	// Source bindings are resolved at graph construction (before any
	// goroutine starts), so a datastore always observes the table
	// version that existed when the run began, even when a loader
	// replaces it mid-run — exactly like the materialising executor.
	// Loader targets, in contrast, are bound lazily (see runLoader):
	// a run that fails upstream must not have replaced its target
	// tables with empty ones.
	ds *vecDatastore

	vals []expr.Value // batchOf's scratch

	// Loaders sharing one target table are chained in topological
	// order — each waits for loadAfter and closes loadDone on success
	// — reproducing the materialising execution order instead of
	// racing on the table. (A waiting loader cannot deadlock its
	// predecessor: the chains feeding two loaders only meet at
	// fan-out nodes, whose edges never block.)
	loadAfter <-chan struct{}
	loadDone  chan struct{}
}

// work runs fn holding a worker-pool token and charges its wall time
// to the operator. The token is held only while computing — never
// while blocked on an edge — so Parallelism bounds CPU concurrency
// without the pool starvation a blocked-holder design would risk.
func (r *runner) work(fn func() error) error {
	r.ex.sem <- struct{}{}
	start := time.Now()
	err := fn()
	r.stats.nanos.Add(int64(time.Since(start)))
	<-r.ex.sem
	return err
}

// emit forwards a batch to every consumer, counting its rows once.
func (r *runner) emit(b *Batch) bool {
	if b.N == 0 {
		return true
	}
	r.stats.rowsOut.Add(int64(b.N))
	for _, o := range r.outs {
		if !o.send(b) {
			return false
		}
	}
	return true
}

// emitAll transposes a blocking operator's materialised rows into
// batches and emits them.
func (r *runner) emitAll(rows [][]expr.Value) error {
	bs := r.ex.opts.BatchSize
	for start := 0; start < len(rows); start += bs {
		var b *Batch
		if err := r.work(func() error {
			b, r.vals = batchOf(rows[start:min(start+bs, len(rows))], len(r.outfd), r.vals)
			return nil
		}); err != nil {
			return err
		}
		if !r.emit(b) {
			return errAborted
		}
	}
	return nil
}

// drain consumes input i to end-of-stream, counting rows in.
func (r *runner) drain(i int, fn func(*Batch) error) error {
	for {
		b, ok := r.ins[i].next()
		if !ok {
			return nil
		}
		r.stats.rowsIn.Add(int64(b.N))
		if err := fn(b); err != nil {
			return err
		}
	}
}

// stream runs a streaming operator: every batch of input 0 through fn,
// whose result is emitted.
func (r *runner) stream(fn func(*Batch) (*Batch, error)) error {
	return r.drain(0, func(b *Batch) error {
		var out *Batch
		if err := r.work(func() (err error) {
			out, err = fn(b)
			return err
		}); err != nil {
			return err
		}
		if !r.emit(out) {
			return errAborted
		}
		return nil
	})
}

func (r *runner) run() {
	defer func() {
		for _, o := range r.outs {
			o.close()
		}
	}()
	var err error
	switch r.node.Type {
	case xlm.OpDatastore:
		err = r.runDatastore()
	case xlm.OpExtraction, xlm.OpUnion:
		err = r.runPassthrough()
	case xlm.OpSelection:
		err = r.runSelection()
	case xlm.OpProjection:
		err = r.runProjection()
	case xlm.OpFunction:
		err = r.runFunction()
	case xlm.OpJoin:
		err = r.runJoin()
	case xlm.OpAggregation:
		err = r.runAggregation()
	case xlm.OpSort:
		err = r.runSort()
	case xlm.OpSurrogateKey:
		err = r.runSurrogateKey()
	case xlm.OpLoader:
		err = r.runLoader()
	default:
		err = fmt.Errorf("unsupported operation type %q", r.node.Type)
	}
	if err != nil && err != errAborted {
		r.ex.fail(fmt.Errorf("engine: node %q: %w", r.node.Name, err))
	}
}

func (r *runner) runDatastore() error {
	cur := r.ds.view.Cursor(nil)
	vecs := make([]*storage.Vector, len(r.ds.cols))
	for {
		var batches []*Batch
		if err := r.work(func() error {
			batches = r.ds.next(cur, vecs, r.ex.opts.BatchSize)
			return nil
		}); err != nil {
			return err
		}
		if batches == nil {
			return nil
		}
		for _, b := range batches {
			if !r.emit(b) {
				return errAborted
			}
		}
	}
}

// runPassthrough forwards batches unchanged: Extraction (one input)
// and Union (≥2 inputs, concatenated in edge order).
func (r *runner) runPassthrough() error {
	for i := range r.ins {
		if err := r.drain(i, func(b *Batch) error {
			if !r.emit(b) {
				return errAborted
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) runSelection() error {
	op, err := newVecSelection(r.node, r.infds[0])
	if err != nil {
		return err
	}
	return r.stream(op.filter)
}

func (r *runner) runProjection() error {
	op, err := newProjectionOp(r.node, r.infds[0], r.outfd)
	if err != nil {
		return err
	}
	return r.stream(func(b *Batch) (*Batch, error) { return pick(b, op.idx, 0), nil })
}

func (r *runner) runFunction() error {
	op, err := newVecFunction(r.node, r.infds[0], r.outfd)
	if err != nil {
		return err
	}
	return r.stream(op.apply)
}

func (r *runner) runJoin() error {
	op, err := newVecJoin(r.node, r.infds[0], r.infds[1], r.outfd)
	if err != nil {
		return err
	}
	// Build incrementally from the right input...
	if err := r.drain(1, func(b *Batch) error {
		return r.work(func() error {
			op.addBuild(b)
			return nil
		})
	}); err != nil {
		return err
	}
	if r.ex.failed() {
		return errAborted
	}
	if err := r.work(op.finishBuild); err != nil {
		return err
	}
	// ...then stream the left input through the probe.
	return r.stream(func(b *Batch) (*Batch, error) { return op.probeBatch(b), nil })
}

func (r *runner) runAggregation() error {
	op, err := newAggregationOp(r.node, r.infds[0])
	if err != nil {
		return err
	}
	groups, measures := make([]Column, len(op.gIdx)), make([]Column, len(op.aggs))
	if err := r.drain(0, func(b *Batch) error {
		return r.work(func() error {
			for g, p := range op.gIdx {
				groups[g] = Column{Vec: b.Cols[p]}
			}
			for i, p := range op.aIdx {
				if p >= 0 {
					measures[i] = Column{Vec: b.Cols[p]}
				}
			}
			return op.addVectors(b.N, groups, measures)
		})
	}); err != nil {
		return err
	}
	if r.ex.failed() {
		return errAborted
	}
	var rows [][]expr.Value
	if err := r.work(func() (err error) {
		rows, err = op.result()
		return err
	}); err != nil {
		return err
	}
	return r.emitAll(rows)
}

func (r *runner) runSort() error {
	op, err := newSortOp(r.node, r.infds[0])
	if err != nil {
		return err
	}
	if err := r.drain(0, func(b *Batch) error {
		return r.work(func() error {
			op.add(new(rowBuffer).of(b)) // kept: rows of their own
			return nil
		})
	}); err != nil {
		return err
	}
	if r.ex.failed() {
		return errAborted
	}
	var rows [][]expr.Value
	if err := r.work(func() error {
		rows = op.result()
		return nil
	}); err != nil {
		return err
	}
	return r.emitAll(rows)
}

func (r *runner) runSurrogateKey() error {
	op, err := newSurrogateKeyOp(r.node, r.infds[0], r.outfd)
	if err != nil {
		return err
	}
	var in rowBuffer
	return r.stream(func(b *Batch) (*Batch, error) {
		var out *Batch
		out, r.vals = batchOf(op.apply(nil, in.of(b)), len(r.outfd), r.vals)
		return out, nil
	})
}

// runLoader streams batches into the target table. The table is bound
// (staged for replace, or delta-staged and remapped for append) on the
// first batch — or at a clean end-of-stream for zero-row loads, which
// still create their target like the materialising path. Replace-mode
// loads stream into a detached staging table published atomically on
// success; append-mode loads stream into a detached delta table merged
// into the live target at the same commit point. Concurrent readers
// therefore never see a half-loaded table or a partial append, and
// failed runs leave every live table untouched.
func (r *runner) runLoader() error {
	if r.loadAfter != nil {
		select {
		case <-r.loadAfter:
		case <-r.ex.abort:
			return errAborted
		}
	}
	var op *loaderOp
	bind := func() error {
		if op != nil {
			return nil
		}
		var err error
		op, err = newLoaderOp(r.node, r.infds[0], r.ex.db, r.ex.staged)
		if err == nil {
			err = op.bindFilter(r.ex.opts.LoadFilter)
		}
		return err
	}
	// The batch's rows are built here, into scratch: the table copies
	// what it keeps.
	var rows rowBuffer
	if err := r.drain(0, func(b *Batch) error {
		return r.work(func() error {
			if err := bind(); err != nil {
				return err
			}
			return op.write(rows.of(b))
		})
	}); err != nil {
		return err
	}
	if r.ex.failed() {
		return errAborted
	}
	if err := bind(); err != nil {
		return err
	}
	// Register the completed load with the run's staged set before
	// successor loaders of the same table are released (they resolve
	// their target through it); the run publishes everything at once
	// when all operations have succeeded.
	op.finish()
	r.ex.addLoaded(op.table, op.written)
	// Release the next loader of this table, if any. On failure paths
	// loadDone stays open and successors unblock through abort.
	close(r.loadDone)
	return nil
}

// planLayouts is the executor's dead-column elimination: it decides,
// per node, which columns of the logical schema (Node.Fields, which
// stays what validation inferred) travel as vectors in the batches
// shipped on the node's output edges.
//
// A reverse topological walk collects the columns each node's
// consumers read: a Loader or a Union everything (a Union's inputs must
// share one layout, so pruning stops there), an Aggregation its group
// and aggregate columns, a Projection the inputs of the specs still
// wanted, every other operator what flows through it plus what it
// reads itself (predicate and expression identifiers, sort, surrogate
// and join keys). A fan-out node carries the union over its consumers.
// Names are unique within a schema, so a name offered to an input that
// does not own it (a join's left columns to its right input, a derived
// column to the input it is derived from) selects nothing.
//
// The forward walk turns the sets into layouts. Column-building
// operators emit the wanted subsequence of their Fields; a Function or
// SurrogateKey always includes its derived column, so the expression
// is evaluated and fails exactly where the full-width reference fails.
// An Aggregation emits its whole (already narrow) result, and
// pass-through operators ship whatever layout they receive.
func planLayouts(d *xlm.Design, order []*xlm.Node) (map[string][]xlm.Field, error) {
	wanted := make(map[string]map[string]bool, len(order))
	for _, n := range order {
		wanted[n.Name] = map[string]bool{}
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		want := wanted[n.Name]
		flows := true // columns wanted of n come from its inputs under the same name
		var reads []string
		var err error
		switch n.Type {
		case xlm.OpLoader, xlm.OpUnion:
			reads = n.FieldNames()
		case xlm.OpAggregation:
			flows = false
			var aggs []xlm.AggSpec
			aggs, err = n.Aggregates()
			reads = n.GroupBy()
			for _, a := range aggs {
				if a.Col != "" { // COUNT(*) reads no column
					reads = append(reads, a.Col)
				}
			}
		case xlm.OpProjection:
			flows = false
			var specs []xlm.ProjectionSpec
			specs, err = n.Projections()
			for _, sp := range specs {
				if want[sp.Out] {
					reads = append(reads, sp.In)
				}
			}
		case xlm.OpSelection:
			var pred expr.Node
			pred, err = n.Predicate()
			reads = expr.Idents(pred)
		case xlm.OpFunction:
			want[n.Param("name")] = true
			var e expr.Node
			e, err = expr.Parse(n.Param("expr"))
			reads = expr.Idents(e)
		case xlm.OpSurrogateKey:
			want[n.Param("key")] = true
			reads = surrogateOn(n)
		case xlm.OpSort:
			reads = n.SortBy()
		case xlm.OpJoin:
			var pairs [][2]string
			pairs, err = n.JoinPairs()
			for _, p := range pairs {
				reads = append(reads, p[0], p[1])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("engine: node %q: %w", n.Name, err)
		}
		for _, in := range d.Inputs(n.Name) {
			from := wanted[in.Name]
			for _, c := range reads {
				from[c] = true
			}
			if flows {
				for c := range want {
					from[c] = true
				}
			}
		}
	}
	layouts := make(map[string][]xlm.Field, len(order))
	for _, n := range order {
		switch n.Type {
		case xlm.OpDatastore, xlm.OpProjection, xlm.OpFunction, xlm.OpSurrogateKey, xlm.OpJoin:
			var out []xlm.Field
			for _, f := range n.Fields {
				if wanted[n.Name][f.Name] {
					out = append(out, f)
				}
			}
			layouts[n.Name] = out
		case xlm.OpAggregation:
			layouts[n.Name] = n.Fields
		default:
			layouts[n.Name] = layouts[d.Inputs(n.Name)[0].Name]
		}
	}
	return layouts, nil
}

// RunWithOptions validates and executes the design with the pipelined,
// DAG-parallel executor. Every operation runs as a batch iterator over
// its input edges; single-consumer edges are bounded channels
// (backpressure), multi-consumer nodes fan out through per-consumer
// cursors. On success, results — loaded tables, per-operation row
// counts, Loaded totals — are byte-identical to RunMaterializing for
// any Options. Replace-mode loads are staged and published atomically
// on success, and append-mode loads are staged as deltas merged at the
// same commit point, so a failed run leaves every live table — replace
// and append targets alike — in its pre-run state.
func RunWithOptions(d *xlm.Design, db *storage.DB, opts Options) (*Result, error) {
	return RunWithOptionsContext(context.Background(), d, db, opts)
}

// RunWithOptionsContext is RunWithOptions under a context: when ctx is
// cancelled the run aborts through the same first-error path as an
// operation failure — every runner observes the closed abort channel
// at its next batch boundary — and nothing is committed (the staged
// loads are simply dropped, so live tables keep their pre-run state).
// The serving layer uses this to stop star-flow oracle queries whose
// client has disconnected.
func RunWithOptionsContext(ctx context.Context, d *xlm.Design, db *storage.DB, opts Options) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	order, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	layouts, err := planLayouts(d, order)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ex := &executor{
		opts:   opts,
		db:     db,
		sem:    make(chan struct{}, opts.Parallelism),
		abort:  make(chan struct{}),
		loaded: map[string]int64{},
		staged: newStagedLoads(),
	}
	// One edge object per design edge. A node with several consumers
	// gets one never-blocking fanEdge cursor per consumer; a node with
	// a single consumer streams through a bounded pipe.
	type edgeKey struct{ from, to string }
	type duplex interface {
		source
		sink
	}
	edges := map[edgeKey]duplex{}
	for _, e := range d.Edges() {
		if len(d.Outputs(e.From)) > 1 {
			fe := newFanEdge()
			ex.fans = append(ex.fans, fe)
			edges[edgeKey{e.From, e.To}] = fe
		} else {
			edges[edgeKey{e.From, e.To}] = &pipeEdge{
				ch:    make(chan *Batch, pipeDepth),
				abort: ex.abort,
			}
		}
	}
	// Build runners in topological order. Datastore bindings happen
	// here, sequentially and before any goroutine starts, so "table
	// not found" surfaces without side effects and scans snapshot the
	// pre-run table versions.
	runners := make([]*runner, 0, len(order))
	stats := make(map[string]*nodeStats, len(order))
	loaderChain := map[string]chan struct{}{}
	for _, n := range order {
		r := &runner{ex: ex, node: n, outfd: layouts[n.Name], stats: &nodeStats{}}
		stats[n.Name] = r.stats
		for _, in := range d.Inputs(n.Name) {
			r.infds = append(r.infds, layouts[in.Name])
			r.ins = append(r.ins, edges[edgeKey{in.Name, n.Name}])
		}
		for _, out := range d.Outputs(n.Name) {
			r.outs = append(r.outs, edges[edgeKey{n.Name, out.Name}])
		}
		switch n.Type {
		case xlm.OpDatastore:
			if r.ds, err = newVecDatastore(n, db, r.outfd); err != nil {
				return nil, fmt.Errorf("engine: node %q: %w", n.Name, err)
			}
		case xlm.OpLoader:
			table := n.Param("table")
			r.loadAfter = loaderChain[table]
			r.loadDone = make(chan struct{})
			loaderChain[table] = r.loadDone
		}
		runners = append(runners, r)
	}
	start := time.Now()
	// Cancellation watcher: fold ctx into the executor's own abort
	// machinery so a cancel behaves exactly like an operation error.
	if ctx != nil && ctx.Done() != nil {
		watcherDone := make(chan struct{})
		defer close(watcherDone)
		go func() {
			select {
			case <-ctx.Done():
				ex.fail(ctx.Err())
			case <-ex.abort:
			case <-watcherDone:
			}
		}()
	}
	var wg sync.WaitGroup
	for _, r := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run()
		}()
	}
	wg.Wait()
	if ex.err != nil {
		return nil, ex.err
	}
	// Commit point: publish every staged load — replace tables and
	// append deltas — in one critical section, so concurrent snapshots
	// see the whole run or none of it.
	if err := ex.staged.commit(db); err != nil {
		return nil, fmt.Errorf("engine: committing run: %w", err)
	}
	res := &Result{Loaded: ex.loaded, Elapsed: time.Since(start)}
	for _, n := range order {
		st := stats[n.Name]
		res.Stats = append(res.Stats, OpStat{
			Node:     n.Name,
			Type:     n.Type,
			RowsIn:   st.rowsIn.Load(),
			RowsOut:  st.rowsOut.Load(),
			Duration: time.Duration(st.nanos.Load()),
		})
	}
	return res, nil
}
