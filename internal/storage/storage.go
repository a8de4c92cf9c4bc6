// Package storage implements the embedded relational store Quarry
// uses on both ends of an ETL run: it hosts the source relations the
// flows extract from and the deployed data-warehouse tables the flows
// load into. It stands in for the PostgreSQL instance of the paper's
// demonstration (the Design Deployer additionally emits real
// PostgreSQL DDL text via internal/sqlgen).
//
// Two backends share one API:
//
//   - In-memory (NewDB/NewMemDB): a typed, mutex-guarded table heap —
//     the default, and the byte-identity oracle the disk backend is
//     tested against.
//   - Disk-backed (Open): tables live in a paged columnar layout on
//     disk — immutable fixed-page segment files named by a manifest —
//     and survive process restarts. Readers pull pages on demand
//     through a bounded buffer pool, so a warehouse larger than
//     memory streams instead of residing. See disk.go and
//     docs/ARCHITECTURE.md for the format and the crash-safety
//     protocol.
//
// The concurrency contract is identical in both modes. Writers stage
// and commit: replace-mode loads build detached tables
// (NewStagingTable) and an ETL run's loads — replace tables and
// append deltas alike — are published in ONE critical section
// (CommitRun), which on disk is also exactly one manifest fsync+
// rename. Readers take Snapshots: immutable, lock-free views that
// stay stable across concurrent publishes. A run that fails before
// its commit leaves every live table byte-identical to its pre-run
// state — in memory because nothing was merged, on disk because the
// previous manifest still names the previous segments (recovery at
// Open discards whatever the failed run wrote).
//
// Setting QUARRY_STORAGE=disk redirects every NewDB call to a
// disk-backed database in a fresh temporary directory — the CI lever
// that runs the whole test suite against the disk backend.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"quarry/internal/expr"
	mf "quarry/internal/storage/manifest"
)

// Column is a typed column of a table ("int", "float", "string",
// "bool"). It is an alias of the manifest schema's column type: the
// committed catalog and the in-memory catalog describe columns
// identically, so the two layers share one definition.
type Column = mf.Column

// Row is one tuple; positions match the table's columns.
type Row []expr.Value

// Table is a typed row heap. In-memory tables hold all rows in the
// tail slice; disk-backed tables hold committed rows in an immutable
// pager (swapped copy-on-write at commit points) with only
// not-yet-committed rows in the tail.
type Table struct {
	Name    string
	Columns []Column

	mu   sync.RWMutex
	pg   *pager // committed on-disk rows; nil for pure in-memory tables
	rows []Row  // in-memory tail, appended after the pager's rows
	by   map[string]int
}

func newTable(name string, cols []Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: table %q has no columns", name)
	}
	t := &Table{Name: name, Columns: append([]Column(nil), cols...), by: map[string]int{}}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: table %q has an unnamed column", name)
		}
		if _, dup := t.by[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %q repeats column %q", name, c.Name)
		}
		switch c.Type {
		case "int", "float", "string", "bool":
		default:
			return nil, fmt.Errorf("storage: table %q column %q has unknown type %q", name, c.Name, c.Type)
		}
		t.by[c.Name] = i
	}
	return t, nil
}

// ColumnIndex returns the position of a column.
func (t *Table) ColumnIndex(name string) (int, bool) {
	i, ok := t.by[name]
	return i, ok
}

// checkRow verifies arity and value kinds against column types and
// writes the row as the table stores it into out (len(t.Columns)
// values the table will own). Integers are accepted into float columns
// (widened on the way in).
func (t *Table) checkRow(r, out Row) error {
	if len(r) != len(t.Columns) {
		return fmt.Errorf("storage: table %q expects %d values, got %d", t.Name, len(t.Columns), len(r))
	}
	for i, v := range r {
		c := t.Columns[i]
		if v.IsNull() {
			out[i] = v
			continue
		}
		switch c.Type {
		case "int":
			if v.Kind() != expr.KindInt {
				return typeErr(t.Name, c, v)
			}
		case "float":
			switch v.Kind() {
			case expr.KindFloat:
			case expr.KindInt:
				f, _ := v.AsFloat()
				v = expr.Float(f)
			default:
				return typeErr(t.Name, c, v)
			}
		case "string":
			if v.Kind() != expr.KindString {
				return typeErr(t.Name, c, v)
			}
		case "bool":
			if v.Kind() != expr.KindBool {
				return typeErr(t.Name, c, v)
			}
		}
		out[i] = v
	}
	return nil
}

func typeErr(table string, c Column, v expr.Value) error {
	return fmt.Errorf("storage: table %q column %q (%s) rejects %s value %s", table, c.Name, c.Type, v.Kind(), v)
}

// Insert appends one row.
func (t *Table) Insert(r Row) error {
	checked := make(Row, len(t.Columns))
	if err := t.checkRow(r, checked); err != nil {
		return err
	}
	t.mu.Lock()
	t.rows = append(t.rows, checked)
	t.mu.Unlock()
	return nil
}

// InsertAll appends many rows, failing atomically on the first bad
// row (nothing is inserted). The stored rows are copies cut from one
// slab per call — the caller's rows are never aliased, and a load pays
// two allocations per batch, not one per row.
func (t *Table) InsertAll(rows []Row) error {
	ncols := len(t.Columns)
	slab := make([]expr.Value, len(rows)*ncols)
	checked := make([]Row, len(rows))
	for i, r := range rows {
		checked[i] = slab[i*ncols : (i+1)*ncols : (i+1)*ncols]
		if err := t.checkRow(r, checked[i]); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.rows = append(t.rows, checked...)
	t.mu.Unlock()
	return nil
}

// capture returns the table's current (pager, tail) pair under one
// lock acquisition: a consistent row source, since commits swap both
// together.
func (t *Table) capture() (*pager, []Row) {
	t.mu.RLock()
	pg, tail := t.pg, t.rows[:len(t.rows):len(t.rows)]
	t.mu.RUnlock()
	return pg, tail
}

// NumRows reports the row count.
func (t *Table) NumRows() int64 {
	pg, tail := t.capture()
	return int64(pg.numRows() + len(tail))
}

// Scan calls fn for every row. The row slice must not be retained or
// mutated. Scanning observes the rows present when it starts; fn must
// not write to the same table.
func (t *Table) Scan(fn func(Row) error) error {
	pg, tail := t.capture()
	for start := 0; ; {
		batch := combinedRead(pg, tail, start, 1024)
		if batch == nil {
			return nil
		}
		for _, r := range batch {
			if err := fn(r); err != nil {
				return err
			}
		}
		start += len(batch)
	}
}

// ReadBatch returns exactly min(max, NumRows-start) rows starting at
// position start, or nil once start is past the end. The returned
// slice is a shared, immutable view: callers must not mutate it or
// the rows it holds. (Appends past the view never move existing rows,
// so the view stays valid while the table grows.) Cursor-style batch
// reads amortise one lock acquisition over max rows, where Scan pays
// one callback per row; on disk-backed tables they are the paged
// cursor — each call touches only the pages covering its range,
// decoded through the buffer pool.
func (t *Table) ReadBatch(start, max int) []Row {
	pg, tail := t.capture()
	return combinedRead(pg, tail, start, max)
}

// combinedRead reads the [start, start+max) row range of a paged base
// followed by an in-memory tail, clamping to the total count.
func combinedRead(pg *pager, tail []Row, start, max int) []Row {
	base := pg.numRows()
	total := base + len(tail)
	if start < 0 || start >= total || max <= 0 {
		return nil
	}
	if start+max > total {
		max = total - start
	}
	if start >= base {
		s := start - base
		return tail[s : s+max : s+max]
	}
	if start+max <= base {
		return pg.readBatch(start, max)
	}
	out := make([]Row, 0, max)
	out = append(out, pg.readBatch(start, base-start)...)
	out = append(out, tail[:max-(base-start)]...)
	return out
}

// AppendBatch validates and appends a batch of rows under a single
// lock acquisition, failing atomically per batch (nothing from a bad
// batch is inserted). It is the write-side counterpart of ReadBatch:
// streaming loaders push fixed-size batches through it instead of
// buffering an entire load for InsertAll.
func (t *Table) AppendBatch(rows []Row) error {
	return t.InsertAll(rows)
}

// Rows returns a copy of all rows; for tests and small results.
func (t *Table) Rows() []Row {
	pg, tail := t.capture()
	out := make([]Row, 0, pg.numRows()+len(tail))
	for start := 0; ; {
		batch := combinedRead(pg, tail, start, 1024)
		if batch == nil {
			return out
		}
		for _, r := range batch {
			out = append(out, append(Row(nil), r...))
		}
		start += len(batch)
	}
}

// Truncate deletes all rows. On disk-backed tables the truncation is
// made durable by the next commit (Checkpoint or an ETL run).
func (t *Table) Truncate() {
	t.mu.Lock()
	t.pg = nil
	t.rows = nil
	t.mu.Unlock()
}

// DB is a named collection of tables, optionally backed by a paged
// on-disk store (Open).
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	order  []string
	store  *diskStore // nil for in-memory databases
	// version counts structural changes (create/replace/drop/attach);
	// result caches key on it to detect reloads of the warehouse.
	version uint64
}

// Version reports the structural version: it increases whenever a
// table is created, replaced, dropped or attached, and once per ETL
// run commit (CommitRun — which append-only runs also reach), so
// version-keyed caches observe every load. Direct row appends outside
// an engine run do not bump it. For disk-backed databases the version
// is committed in the manifest and survives restarts.
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// NewDB creates an execution database: in-memory by default, or
// disk-backed in a fresh temporary directory when the QUARRY_STORAGE
// environment variable is "disk" (the CI matrix lever that runs every
// test that constructs a DB against the disk backend; it panics on
// setup failure so a misconfigured matrix leg cannot silently test
// the wrong backend). The leg is meant for ephemeral runners: the
// per-DB directories — grouped under <tmp>/quarry-disk-tests so one
// `rm -rf` clears them — are not removed (there is no DB close
// lifecycle to hang cleanup on). Production disk databases name
// their directory explicitly via Open.
func NewDB() *DB {
	if os.Getenv("QUARRY_STORAGE") == "disk" {
		root := filepath.Join(os.TempDir(), "quarry-disk-tests")
		if err := os.MkdirAll(root, 0o755); err != nil {
			panic(fmt.Sprintf("storage: QUARRY_STORAGE=disk: %v", err))
		}
		dir, err := os.MkdirTemp(root, "db-")
		if err != nil {
			panic(fmt.Sprintf("storage: QUARRY_STORAGE=disk: %v", err))
		}
		db, err := Open(dir)
		if err != nil {
			panic(fmt.Sprintf("storage: QUARRY_STORAGE=disk: %v", err))
		}
		return db
	}
	return NewMemDB()
}

// NewMemDB creates an empty in-memory database regardless of
// QUARRY_STORAGE — for scratch work that must stay off disk (the OLAP
// oracle's per-query scratch databases, tests of the memory backend).
func NewMemDB() *DB {
	return &DB{tables: map[string]*Table{}}
}

// CreateTable creates a table; it fails if the name exists.
func (db *DB) CreateTable(name string, cols []Column) (*Table, error) {
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	install := func() {
		db.tables[name] = t
		db.order = append(db.order, name)
		db.version++
	}
	if st := db.store; st != nil {
		st.commitMu.Lock()
		defer st.commitMu.Unlock()
		if _, dup := db.Table(name); dup {
			return nil, fmt.Errorf("storage: table %q already exists", name)
		}
		order, tables := db.catalogWith([]*Table{t})
		if err := db.commitDisk(db.Version()+1, order, tables, nil, nil, install); err != nil {
			return nil, err
		}
		return t, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	install()
	return t, nil
}

// NewStagingTable creates a detached table registered in no database:
// loaders build replace-mode loads in one, then swap the finished
// table in atomically with Publish, so concurrent readers never
// observe a half-loaded table. Staging tables are always in-memory;
// publishing into a disk-backed database writes their rows out as
// fresh segments at the commit.
func NewStagingTable(name string, cols []Column) (*Table, error) {
	return newTable(name, cols)
}

// Publish atomically registers the table under its name, replacing
// any previous version. Snapshots and readers holding the previous
// table object keep their stable view.
func (db *DB) Publish(t *Table) error { return db.PublishAll([]*Table{t}) }

// PublishAll registers every table in one critical section — the
// commit point of an ETL run: a concurrent Snapshot sees either none
// or all of the run's replace-mode loads, never a mix of new facts
// with old dimensions. The version is bumped once per call, even for
// an empty table list (append-only runs call it with no tables so
// version-keyed caches still observe the change).
func (db *DB) PublishAll(tables []*Table) error { return db.CommitRun(tables, nil) }

// AppendDelta is a staged append-mode load: rows destined for an
// existing live table, buffered in a detached Delta table (same column
// layout as Target, rows already validated against it) until the run
// commits. Staging appends keeps failed runs from leaving a partial
// append behind in the live table.
type AppendDelta struct {
	Target *Table
	Delta  *Table
}

// CommitRun is the commit point of an ETL run: it publishes every
// replace-mode table and merges every staged append delta into its
// live target in one critical section, then bumps the version once. A
// concurrent Snapshot therefore sees either none or all of the run's
// loads — replace and append alike. On a disk-backed database the
// same call writes the staged tables and deltas as new segments and
// commits them with one manifest fsync+rename; an error (or a crash)
// anywhere before that rename leaves both the live in-memory tables
// and the on-disk warehouse byte-identical to their pre-run state,
// with no version bump.
func (db *DB) CommitRun(tables []*Table, appends []AppendDelta) error {
	if st := db.store; st != nil {
		st.commitMu.Lock()
		defer st.commitMu.Unlock()
		order, catalog := db.catalogWith(tables)
		var extra map[*Table][]Row
		for _, a := range appends {
			a.Delta.mu.RLock()
			rows := a.Delta.rows[:len(a.Delta.rows):len(a.Delta.rows)]
			a.Delta.mu.RUnlock()
			// A target replaced by this same run's staged tables keeps
			// the memory backend's semantics: the delta lands in the
			// dead object, invisible either way.
			if len(rows) == 0 || catalog[a.Target.Name] != a.Target {
				continue
			}
			if extra == nil {
				extra = map[*Table][]Row{}
			}
			extra[a.Target] = append(extra[a.Target], rows...)
		}
		return db.commitDisk(db.Version()+1, order, catalog, extra, nil, func() {
			for _, t := range tables {
				if _, exists := db.tables[t.Name]; !exists {
					db.order = append(db.order, t.Name)
				}
				db.tables[t.Name] = t
			}
			db.version++
		})
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, t := range tables {
		if _, exists := db.tables[t.Name]; !exists {
			db.order = append(db.order, t.Name)
		}
		db.tables[t.Name] = t
	}
	for _, a := range appends {
		a.Delta.mu.RLock()
		rows := a.Delta.rows
		a.Delta.mu.RUnlock()
		if len(rows) == 0 {
			continue
		}
		// Delta rows were validated against the delta's columns, which
		// are a copy of the target's, so they merge without re-checking.
		a.Target.mu.Lock()
		a.Target.rows = append(a.Target.rows, rows...)
		a.Target.mu.Unlock()
	}
	db.version++
	return nil
}

// Attach registers an existing table object under its own name without
// copying rows; it fails if the name is taken. Scratch databases use it
// to share source tables (typically frozen snapshot views) with a main
// database while keeping their own writes private. Attaching to a
// disk-backed database persists the table like any other.
func (db *DB) Attach(t *Table) error {
	if t == nil {
		return fmt.Errorf("storage: cannot attach nil table")
	}
	install := func() {
		db.tables[t.Name] = t
		db.order = append(db.order, t.Name)
		db.version++
	}
	if st := db.store; st != nil {
		st.commitMu.Lock()
		defer st.commitMu.Unlock()
		if _, dup := db.Table(t.Name); dup {
			return fmt.Errorf("storage: table %q already exists", t.Name)
		}
		order, tables := db.catalogWith([]*Table{t})
		return db.commitDisk(db.Version()+1, order, tables, nil, nil, install)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[t.Name]; dup {
		return fmt.Errorf("storage: table %q already exists", t.Name)
	}
	install()
	return nil
}

// CreateOrReplaceTable creates the table, dropping any previous
// version — the loaders' "replace" mode.
func (db *DB) CreateOrReplaceTable(name string, cols []Column) (*Table, error) {
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	install := func() {
		if _, exists := db.tables[name]; !exists {
			db.order = append(db.order, name)
		}
		db.tables[name] = t
		db.version++
	}
	if st := db.store; st != nil {
		st.commitMu.Lock()
		defer st.commitMu.Unlock()
		order, tables := db.catalogWith([]*Table{t})
		if err := db.commitDisk(db.Version()+1, order, tables, nil, nil, install); err != nil {
			return nil, err
		}
		return t, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	install()
	return t, nil
}

// Drop removes a table.
func (db *DB) Drop(name string) error {
	remove := func() {
		delete(db.tables, name)
		for i, n := range db.order {
			if n == name {
				db.order = append(db.order[:i], db.order[i+1:]...)
				break
			}
		}
		db.version++
	}
	if st := db.store; st != nil {
		st.commitMu.Lock()
		defer st.commitMu.Unlock()
		db.mu.RLock()
		_, ok := db.tables[name]
		order := make([]string, 0, len(db.order))
		tables := make(map[string]*Table, len(db.tables))
		for _, n := range db.order {
			if n == name {
				continue
			}
			order = append(order, n)
			tables[n] = db.tables[n]
		}
		db.mu.RUnlock()
		if !ok {
			return fmt.Errorf("storage: table %q does not exist", name)
		}
		return db.commitDisk(db.Version()+1, order, tables, nil, nil, remove)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("storage: table %q does not exist", name)
	}
	remove()
	return nil
}

// Table looks a table up by name.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := append([]string(nil), db.order...)
	sort.Strings(out)
	return out
}
