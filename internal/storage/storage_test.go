package storage

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"quarry/internal/expr"
)

func TestCreateAndInsert(t *testing.T) {
	db := NewMemDB()
	tbl, err := db.CreateTable("nation", []Column{
		{Name: "n_nationkey", Type: "int"},
		{Name: "n_name", Type: "string"},
		{Name: "n_share", Type: "float"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{expr.Int(1), expr.Str("Spain"), expr.Float(0.2)}); err != nil {
		t.Fatal(err)
	}
	// Int widens into float column.
	if err := tbl.Insert(Row{expr.Int(2), expr.Str("France"), expr.Int(1)}); err != nil {
		t.Fatal(err)
	}
	// NULL allowed anywhere.
	if err := tbl.Insert(Row{expr.Int(3), expr.Null(), expr.Null()}); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	rows := tbl.Rows()
	if v, _ := rows[1][2].AsFloat(); v != 1 || rows[1][2].Kind() != expr.KindFloat {
		t.Errorf("widening failed: %v (%v)", rows[1][2], rows[1][2].Kind())
	}
}

func TestInsertTypeErrors(t *testing.T) {
	db := NewMemDB()
	tbl, _ := db.CreateTable("t", []Column{
		{Name: "i", Type: "int"}, {Name: "s", Type: "string"}, {Name: "b", Type: "bool"},
	})
	bad := []Row{
		{expr.Str("x"), expr.Str("ok"), expr.Bool(true)},            // string into int
		{expr.Float(1.5), expr.Str("ok"), expr.Bool(true)},          // float into int
		{expr.Int(1), expr.Int(2), expr.Bool(true)},                 // int into string
		{expr.Int(1), expr.Str("ok"), expr.Int(1)},                  // int into bool
		{expr.Int(1), expr.Str("ok")},                               // arity
		{expr.Int(1), expr.Str("ok"), expr.Bool(true), expr.Int(9)}, // arity
	}
	for i, r := range bad {
		if err := tbl.Insert(r); err == nil {
			t.Errorf("bad row %d accepted", i)
		}
	}
	if tbl.NumRows() != 0 {
		t.Errorf("bad inserts left %d rows", tbl.NumRows())
	}
}

func TestInsertAllAtomic(t *testing.T) {
	db := NewMemDB()
	tbl, _ := db.CreateTable("t", []Column{{Name: "i", Type: "int"}})
	err := tbl.InsertAll([]Row{
		{expr.Int(1)},
		{expr.Str("bad")},
		{expr.Int(3)},
	})
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	if tbl.NumRows() != 0 {
		t.Errorf("partial insert: %d rows", tbl.NumRows())
	}
}

func TestCreateErrors(t *testing.T) {
	db := NewMemDB()
	if _, err := db.CreateTable("", []Column{{Name: "a", Type: "int"}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := db.CreateTable("t", nil); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "", Type: "int"}}); err == nil {
		t.Error("unnamed column accepted")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Type: "int"}, {Name: "a", Type: "int"}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Type: "blob"}}); err == nil {
		t.Error("bad type accepted")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Type: "int"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Type: "int"}}); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestCreateOrReplace(t *testing.T) {
	db := NewMemDB()
	t1, _ := db.CreateTable("t", []Column{{Name: "a", Type: "int"}})
	t1.Insert(Row{expr.Int(1)})
	t2, err := db.CreateOrReplaceTable("t", []Column{{Name: "b", Type: "string"}})
	if err != nil {
		t.Fatal(err)
	}
	if t2.NumRows() != 0 {
		t.Error("replacement kept rows")
	}
	cur, _ := db.Table("t")
	if cur.Columns[0].Name != "b" {
		t.Error("replacement not visible")
	}
	if got := len(db.TableNames()); got != 1 {
		t.Errorf("TableNames = %d entries", got)
	}
}

func TestConcurrentInsertAndScan(t *testing.T) {
	db := NewMemDB()
	tbl, _ := db.CreateTable("t", []Column{{Name: "a", Type: "int"}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := tbl.Insert(Row{expr.Int(int64(w*100 + i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tbl.Rows()
		}
	}()
	wg.Wait()
	<-done
	if tbl.NumRows() != 800 {
		t.Errorf("rows = %d, want 800", tbl.NumRows())
	}
}

// TestCursorNextBatches walks committed pages and then the tail in
// batches of at most three: every row once, in order, a short batch at
// the end of each run, and batches handed out before an append
// unchanged by it.
func TestCursorNextBatches(t *testing.T) {
	db := NewMemDB()
	tbl, _ := db.CreateTable("t", []Column{{Name: "a", Type: "int"}})
	for i := 0; i < 10; i++ {
		tbl.Insert(Row{expr.Int(int64(i))})
		if i == 6 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("t")
	cur := view.Cursor(nil)
	var got []int64
	var sizes []int
	var batches [][]Row
	for b := cur.Next(3); b != nil; b = cur.Next(3) {
		sizes = append(sizes, len(b))
		batches = append(batches, b)
		for _, r := range b {
			got = append(got, r[0].AsInt())
		}
	}
	if !reflect.DeepEqual(sizes, []int{3, 3, 1, 3}) {
		t.Fatalf("batch sizes %v, want [3 3 1 3]: seven committed rows, then three in the tail", sizes)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Errorf("row %d = %d", i, v)
		}
	}
	if cur.Next(3) != nil || view.Cursor(nil).Next(0) != nil {
		t.Error("a cursor past its end, or asked for no rows, returned some")
	}
	// Batches taken before appends must not see them.
	tbl.InsertAll([]Row{{expr.Int(100)}, {expr.Int(101)}})
	if last := batches[len(batches)-1]; len(last) != 3 || last[2][0].AsInt() != 9 {
		t.Error("append mutated an existing batch")
	}
	if tbl.NumRows() != 12 {
		t.Errorf("rows after InsertAll = %d", tbl.NumRows())
	}
}

// TestInsertAllDoesNotAliasInput: the rows a batch load stores are
// the table's own — cut from its slab, never the caller's arrays (the
// pipelined executor reuses its batch slabs) and never each other's.
func TestInsertAllDoesNotAliasInput(t *testing.T) {
	tbl, err := NewStagingTable("t", []Column{{Name: "i", Type: "int"}, {Name: "f", Type: "float"}, {Name: "s", Type: "string"}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []Row {
		return []Row{
			{expr.Int(1), expr.Int(10), expr.Str("a")}, // the int widens into the float column
			{expr.Int(2), expr.Float(2.5), expr.Null()},
			{expr.Null(), expr.Float(3.5), expr.Str("c")},
		}
	}
	in := mk()
	if err := tbl.InsertAll(in); err != nil {
		t.Fatal(err)
	}
	for _, r := range in {
		for ci := range r {
			r[ci] = expr.Str("clobbered")
		}
	}
	want := mk()
	want[0][1] = expr.Float(10)
	stored := tbl.Rows()
	if !reflect.DeepEqual(stored, want) {
		t.Fatalf("stored rows changed with the caller's: %v", stored)
	}
	// Rows read out are the reader's own: changing them changes nothing
	// stored.
	stored[0][0] = expr.Str("spill")
	if got := tbl.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("changing a read row changed the table: %v", got)
	}
	// A bad row anywhere inserts nothing, with the row checker's words.
	err = tbl.InsertAll([]Row{{expr.Int(4), expr.Float(1), expr.Str("d")}, {expr.Str("x"), expr.Float(1), expr.Str("e")}})
	if err == nil || !strings.Contains(err.Error(), `column "i" (int) rejects string value 'x'`) {
		t.Fatalf("bad batch: err = %v", err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("failed batch left %d rows", tbl.NumRows())
	}
}
