// Package storage implements the embedded relational store Quarry
// uses on both ends of an ETL run: it hosts the source relations the
// flows extract from and the deployed data-warehouse tables the flows
// load into. It stands in for the PostgreSQL instance of the paper's
// demonstration (the Design Deployer additionally emits real
// PostgreSQL DDL text via internal/sqlgen).
//
// There is one store. A table's committed rows live in immutable
// segments of encoded, compressed, zone-mapped pages, read on demand
// through a bounded buffer pool; rows appended since the last commit
// form the table's uncommitted tail, immutable column-vector chunks
// that readers take as they take the pages and a commit encodes pages
// from (tail.go). A database opened on a directory
// (Open) keeps each segment in a file named by a manifest and
// survives process restarts; a database without one (NewMemDB) runs
// the same commit and keeps the same segment bytes on the heap. See
// disk.go and docs/ARCHITECTURE.md for the format and the
// crash-safety protocol.
//
// Writers stage and commit: a loader builds a detached table
// (NewStagingTable) and an ETL run's loads are published in ONE
// critical section (Publish), which with a directory is also exactly
// one manifest fsync+rename. Readers take Snapshots: immutable,
// lock-free views that stay stable across concurrent publishes. A run that fails
// before its commit leaves every live table byte-identical to its
// pre-run state: nothing was merged in memory, and the previous
// manifest still names the previous segments (recovery at Open
// discards whatever the failed run wrote).
package storage

import (
	"fmt"
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

// Row is one tuple; positions match the table's columns. It is the
// engine's row, so rows pass between the two layers as they are.
type Row = []expr.Value

// Table is a typed relation: committed rows in an immutable pager
// (swapped copy-on-write at commit points), followed by the rows
// appended since, its uncommitted tail — immutable column-vector chunks
// (tail.go).
type Table struct {
	Name    string
	Columns []Column

	mu   sync.RWMutex
	pg   *pager     // committed rows; nil before the first commit that holds any
	tail []*chunk   // sealed chunks of the uncommitted tail, after the pager's rows
	open *openChunk // rows inserted since the last seal, after tail; nil when none
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

// capture returns the table's current (pager, tail) pair: a consistent
// row source, since commits swap both together. The open chunk is
// sealed first, so the tail is immutable chunks only; the returned
// slice is capacity-capped, so later appends never reach into it.
func (t *Table) capture() (*pager, []*chunk) {
	t.mu.RLock()
	pg, tail, open := t.pg, t.tail[:len(t.tail):len(t.tail)], t.open
	t.mu.RUnlock()
	if open == nil {
		return pg, tail
	}
	t.mu.Lock()
	t.seal()
	pg, tail = t.pg, t.tail[:len(t.tail):len(t.tail)]
	t.mu.Unlock()
	return pg, tail
}

// NumRows reports the row count.
func (t *Table) NumRows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.pg.numRows() + chunksRows(t.tail)
	if t.open != nil {
		n += t.open.n
	}
	return int64(n)
}

// Rows returns a copy of all rows, read through a cursor; for tests,
// the oracle and small results.
func (t *Table) Rows() []Row {
	pg, tail := t.capture()
	out := make([]Row, 0, pg.numRows()+chunksRows(tail))
	cur := (&TableView{cols: t.Columns, pg: pg, tail: tail}).Cursor(nil)
	for b := cur.Next(pageSize); b != nil; b = cur.Next(pageSize) {
		out = append(out, b...)
	}
	return out
}

// DB is a named collection of tables over one segment store, with a
// directory (Open) or without (NewMemDB).
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	order  []string
	store  *store
	// version counts structural changes (create/replace/drop/attach);
	// result caches key on it to detect reloads of the warehouse.
	version uint64
}

// Version reports the structural version: it increases whenever a
// table is created, replaced, dropped or attached, and once per ETL
// run commit (Publish), so version-keyed caches observe every load.
// Direct row appends outside an engine run do not bump it. With a
// directory the version is committed in the manifest and survives
// restarts.
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// NewMemDB creates an empty database without a directory: its
// commits encode the pages a disk store writes and keep each segment's
// bytes on the heap, so nothing outlives the process. Tests and the
// OLAP oracle's per-query scratch databases use it; Open names a
// directory.
func NewMemDB() *DB {
	return &DB{tables: map[string]*Table{}, store: newStore("")}
}

// CreateTable creates a table; it fails if the name exists.
func (db *DB) CreateTable(name string, cols []Column) (*Table, error) {
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	if err := db.Attach(t); err != nil {
		return nil, err
	}
	return t, nil
}

// NewStagingTable creates a detached table registered in no database:
// loaders build their loads in one, then swap the finished table in
// atomically with Publish, so concurrent readers never observe a
// half-loaded table. A staging table holds only a tail;
// publishing it encodes its rows into fresh segments at the commit.
func NewStagingTable(name string, cols []Column) (*Table, error) {
	return newTable(name, cols)
}

// Publish registers every table under its name in one critical
// section, replacing any previous version, and bumps the version once —
// the commit point of an ETL run: a concurrent Snapshot sees either
// none or all of the run's loads, never a mix of new facts with old
// dimensions, and readers holding a previous table object keep their
// stable view. The same call encodes the tables' rows as new segments
// and, with a directory, commits them with one manifest fsync+rename;
// an error (or a crash) anywhere before that rename leaves both the
// live tables and the on-disk warehouse byte-identical to their
// pre-run state, with no version bump.
func (db *DB) Publish(tables ...*Table) error {
	st := db.store
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	order, catalog := db.catalogWith(tables)
	return db.commitDisk(db.Version()+1, order, catalog, func() {
		for _, t := range tables {
			if _, exists := db.tables[t.Name]; !exists {
				db.order = append(db.order, t.Name)
			}
			db.tables[t.Name] = t
		}
		db.version++
	})
}

// Attach registers an existing table object under its own name without
// copying rows; it fails if the name is taken. Scratch databases use it
// to share source tables (typically frozen snapshot views) with a main
// database while keeping their own writes private. The commit encodes
// the table's tail; a database with a directory also copies segments
// that belong to another database into its own files, while one
// without keeps referring to them.
func (db *DB) Attach(t *Table) error {
	if t == nil {
		return fmt.Errorf("storage: cannot attach nil table")
	}
	st := db.store
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	if _, dup := db.Table(t.Name); dup {
		return fmt.Errorf("storage: table %q already exists", t.Name)
	}
	order, tables := db.catalogWith([]*Table{t})
	return db.commitDisk(db.Version()+1, order, tables, func() {
		db.tables[t.Name] = t
		db.order = append(db.order, t.Name)
		db.version++
	})
}

// CreateOrReplaceTable creates the table, dropping any previous
// version.
func (db *DB) CreateOrReplaceTable(name string, cols []Column) (*Table, error) {
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	if err := db.Publish(t); err != nil {
		return nil, err
	}
	return t, nil
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
