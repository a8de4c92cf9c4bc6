package storage

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"quarry/internal/expr"
)

// TestCommitReleasesCommittedChunks: once a commit has encoded a
// table's tail into segments, the table holds none of the chunks it
// committed, so they are collected when no snapshot captured before the
// commit holds them; a snapshot that does still reads its rows as they
// were. Checked through Checkpoint and Publish, with a directory and
// without.
func TestCommitReleasesCommittedChunks(t *testing.T) {
	commits := map[string]func(db *DB, tbl *Table) error{
		"Checkpoint": func(db *DB, _ *Table) error { return db.Checkpoint() },
		"Publish":    func(db *DB, tbl *Table) error { return db.Publish(tbl) },
	}
	for name, commit := range commits {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/disk=%v", name, disk), func(t *testing.T) {
				db := NewMemDB()
				if disk {
					var err error
					if db, err = Open(t.TempDir()); err != nil {
						t.Fatal(err)
					}
				}
				tbl, err := db.CreateTable("t", []Column{{Name: "i", Type: "int"}, {Name: "s", Type: "string"}})
				if err != nil {
					t.Fatal(err)
				}
				// Unheld: nothing but the table refers to the chunk.
				chunk := appendChunk(t, tbl, 0)
				if err := commit(db, tbl); err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				if chunk.Value() != nil {
					t.Fatal("a committed chunk is still reachable with no snapshot holding it")
				}
				// Held: a snapshot taken before the commit keeps its
				// chunk and reads the same rows after it.
				chunk = appendChunk(t, tbl, 1)
				view := viewOfDB(db)
				before := viewRows(view)
				if err := commit(db, tbl); err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				if after := viewRows(view); fmt.Sprintf("%#v", after) != fmt.Sprintf("%#v", before) {
					t.Fatalf("a snapshot taken before the commit reads %v after it, %v before", after, before)
				}
				if chunk.Value() == nil {
					t.Fatal("the chunk of a held snapshot was collected")
				}
				runtime.KeepAlive(view)
				runtime.GC()
				if chunk.Value() != nil {
					t.Fatal("a committed chunk is still reachable once its snapshot is dropped")
				}
				if got := tbl.NumRows(); got != 2*chunkTestRows {
					t.Fatalf("table holds %d rows, want %d", got, 2*chunkTestRows)
				}
			})
		}
	}
}

const chunkTestRows = 100

// appendChunk appends one batch of rows to tbl's tail (batch b's) and
// returns a weak pointer to the chunk that holds them.
func appendChunk(t *testing.T, tbl *Table, b int) weak.Pointer[chunk] {
	t.Helper()
	ints, strs := make([]expr.Value, chunkTestRows), make([]expr.Value, chunkTestRows)
	for r := range ints {
		ints[r], strs[r] = expr.Int(int64(b*chunkTestRows+r)), expr.Str(fmt.Sprint("row ", b*chunkTestRows+r))
	}
	if err := tbl.AppendVectors(chunkTestRows, []*Vector{VectorOf(ints), VectorOf(strs)}); err != nil {
		t.Fatal(err)
	}
	_, tail := tbl.capture()
	return weak.Make(tail[len(tail)-1])
}

// viewRows reads every row of a view through a cursor.
func viewRows(v *TableView) []Row {
	var rows []Row
	cur := v.Cursor(nil)
	for b := cur.Next(pageSize); b != nil; b = cur.Next(pageSize) {
		rows = append(rows, b...)
	}
	return rows
}
