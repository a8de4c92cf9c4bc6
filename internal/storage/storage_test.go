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

func TestDrop(t *testing.T) {
	db := NewMemDB()
	db.CreateTable("a", []Column{{Name: "x", Type: "int"}})
	db.CreateTable("b", []Column{{Name: "x", Type: "int"}})
	if err := db.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("a"); ok {
		t.Error("dropped table still visible")
	}
	if err := db.Drop("a"); err == nil {
		t.Error("double drop succeeded")
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "b" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestScanAndTruncate(t *testing.T) {
	db := NewMemDB()
	tbl, _ := db.CreateTable("t", []Column{{Name: "a", Type: "int"}})
	for i := 0; i < 10; i++ {
		tbl.Insert(Row{expr.Int(int64(i))})
	}
	var sum int64
	err := tbl.Scan(func(r Row) error {
		sum += r[0].AsInt()
		return nil
	})
	if err != nil || sum != 45 {
		t.Errorf("scan sum = %d, %v", sum, err)
	}
	tbl.Truncate()
	if tbl.NumRows() != 0 {
		t.Error("truncate failed")
	}
	if i, ok := tbl.ColumnIndex("a"); !ok || i != 0 {
		t.Error("ColumnIndex failed")
	}
	if _, ok := tbl.ColumnIndex("ghost"); ok {
		t.Error("ColumnIndex false positive")
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
			tbl.Scan(func(Row) error { return nil })
		}
	}()
	wg.Wait()
	<-done
	if tbl.NumRows() != 800 {
		t.Errorf("rows = %d, want 800", tbl.NumRows())
	}
}

func TestReadBatch(t *testing.T) {
	db := NewMemDB()
	tbl, _ := db.CreateTable("t", []Column{{Name: "a", Type: "int"}})
	for i := 0; i < 10; i++ {
		tbl.Insert(Row{expr.Int(int64(i))})
	}
	var got []int64
	for start := 0; ; start += 3 {
		batch := tbl.ReadBatch(start, 3)
		if batch == nil {
			break
		}
		for _, r := range batch {
			got = append(got, r[0].AsInt())
		}
	}
	if len(got) != 10 {
		t.Fatalf("cursor read %d rows, want 10", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Errorf("row %d = %d", i, v)
		}
	}
	if tbl.ReadBatch(10, 3) != nil || tbl.ReadBatch(-1, 3) != nil || tbl.ReadBatch(0, 0) != nil {
		t.Error("out-of-range ReadBatch not nil")
	}
	// A view taken before appends must not see them.
	view := tbl.ReadBatch(8, 100)
	if len(view) != 2 {
		t.Fatalf("tail view = %d rows", len(view))
	}
	tbl.AppendBatch([]Row{{expr.Int(100)}, {expr.Int(101)}})
	if len(view) != 2 || view[1][0].AsInt() != 9 {
		t.Error("append mutated an existing batch view")
	}
	if tbl.NumRows() != 12 {
		t.Errorf("rows after AppendBatch = %d", tbl.NumRows())
	}
}

func TestAppendBatchAtomic(t *testing.T) {
	db := NewMemDB()
	tbl, _ := db.CreateTable("t", []Column{{Name: "a", Type: "int"}})
	err := tbl.AppendBatch([]Row{{expr.Int(1)}, {expr.Str("bad")}})
	if err == nil {
		t.Fatal("typed batch accepted")
	}
	if tbl.NumRows() != 0 {
		t.Errorf("partial batch inserted: %d rows", tbl.NumRows())
	}
}

// TestAppendBatchDoesNotAliasInput: the rows a batch load stores are
// the table's own — cut from its slab, never the caller's arrays (the
// pipelined executor reuses its batch slabs) and never each other's.
func TestAppendBatchDoesNotAliasInput(t *testing.T) {
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
	if err := tbl.AppendBatch(in); err != nil {
		t.Fatal(err)
	}
	for _, r := range in {
		for ci := range r {
			r[ci] = expr.Str("clobbered")
		}
	}
	want := mk()
	want[0][1] = expr.Float(10)
	stored := tbl.ReadBatch(0, 3)
	if !reflect.DeepEqual(stored, want) {
		t.Fatalf("stored rows changed with the caller's: %v", stored)
	}
	// Growing one stored row must not reach into its neighbour.
	_ = append(stored[0], expr.Str("spill"))
	if got := tbl.ReadBatch(0, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("appending to a stored row overwrote the next one: %v", got)
	}
	// A bad row anywhere inserts nothing, with the row checker's words.
	err = tbl.AppendBatch([]Row{{expr.Int(4), expr.Float(1), expr.Str("d")}, {expr.Str("x"), expr.Float(1), expr.Str("e")}})
	if err == nil || !strings.Contains(err.Error(), `column "i" (int) rejects string value 'x'`) {
		t.Fatalf("bad batch: err = %v", err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("failed batch left %d rows", tbl.NumRows())
	}
}
