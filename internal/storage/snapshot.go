package storage

import "fmt"

// This file implements snapshot isolation for readers: a Snapshot
// captures, under a single lock acquisition, an immutable view of a
// set of tables (the table objects current at that instant, clamped to
// their row counts at that instant). Queries that read only through
// the snapshot see a stable state while ETL runs concurrently:
// replace-mode loads swap whole table objects in the DB map (the
// snapshot keeps the old object alive), and append-mode loads only add
// rows past the clamped prefix (appends never move existing rows, so
// the captured slice view stays valid). The captured pager is
// immutable (commits install a new pager object rather than mutating
// the old one), its segment files stay readable through their open
// handles even after a republish unlinks them, and the uncommitted
// tail is clamped to its length at that instant.

// TableView is one table of a Snapshot: an immutable, lock-free view
// of the rows that existed when the snapshot was taken. Callers must
// not mutate the returned rows.
type TableView struct {
	name string
	cols []Column
	by   map[string]int
	pg   *pager // captured committed pages
	rows []Row  // captured uncommitted tail
}

// Name returns the table name.
func (v *TableView) Name() string { return v.name }

// Columns returns the table's column definitions (shared; do not
// mutate).
func (v *TableView) Columns() []Column { return v.cols }

// ColumnIndex returns the position of a column.
func (v *TableView) ColumnIndex(name string) (int, bool) {
	i, ok := v.by[name]
	return i, ok
}

// NumRows reports the snapshotted row count.
func (v *TableView) NumRows() int64 { return int64(v.pg.numRows() + len(v.rows)) }

// ReadBatch returns exactly min(max, NumRows-start) rows starting at
// position start, or nil once start is past the end. Unlike
// Table.ReadBatch it takes no lock: the view is immutable.
func (v *TableView) ReadBatch(start, max int) []Row {
	return combinedRead(v.pg, v.rows, start, max)
}

// Freeze materialises the view as a standalone read-only Table sharing
// the snapshotted rows (no copy). Appending to a frozen table never
// disturbs the shared backing array (the row slice is capacity-capped
// and the pager immutable), but frozen tables are meant for read-only
// use, e.g. attaching a consistent source set to a scratch DB for
// engine execution.
func (v *TableView) Freeze() *Table {
	by := make(map[string]int, len(v.by))
	for k, i := range v.by {
		by[k] = i
	}
	return &Table{
		Name:    v.name,
		Columns: append([]Column(nil), v.cols...),
		by:      by,
		pg:      v.pg,
		rows:    v.rows,
	}
}

// Snapshot is a consistent read view over a set of tables.
type Snapshot struct {
	version uint64
	views   map[string]*TableView
}

// Snapshot captures an immutable view of the named tables plus the
// DB's current version, all under one lock acquisition. It fails if
// any table does not exist.
func (db *DB) Snapshot(names ...string) (*Snapshot, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := &Snapshot{version: db.version, views: make(map[string]*TableView, len(names))}
	for _, name := range names {
		if _, dup := s.views[name]; dup {
			continue
		}
		t, ok := db.tables[name]
		if !ok {
			return nil, fmt.Errorf("storage: snapshot: table %q does not exist", name)
		}
		t.mu.RLock()
		pg := t.pg
		rows := t.rows[:len(t.rows):len(t.rows)]
		t.mu.RUnlock()
		s.views[name] = &TableView{name: name, cols: t.Columns, by: t.by, pg: pg, rows: rows}
	}
	return s, nil
}

// Table returns the view of one snapshotted table.
func (s *Snapshot) Table(name string) (*TableView, bool) {
	v, ok := s.views[name]
	return v, ok
}

// Version reports the DB structural version the snapshot was taken
// at; stable cache keys combine it with the query.
func (s *Snapshot) Version() uint64 { return s.version }
