package storage

import (
	"fmt"
	"sync"
	"testing"

	"quarry/internal/expr"
)

func mkTable(t *testing.T, db *DB, name string, n int) *Table {
	t.Helper()
	tb, err := db.CreateTable(name, []Column{{Name: "id", Type: "int"}, {Name: "v", Type: "string"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tb.Insert(Row{expr.Int(int64(i)), expr.Str(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestSnapshotIgnoresLaterAppends(t *testing.T) {
	db := NewMemDB()
	tb := mkTable(t, db, "t", 3)
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(Row{expr.Int(99), expr.Str("late")}); err != nil {
		t.Fatal(err)
	}
	v, ok := snap.Table("t")
	if !ok {
		t.Fatal("view missing")
	}
	if v.NumRows() != 3 {
		t.Fatalf("snapshot rows = %d, want 3", v.NumRows())
	}
	if got := collect(v.Cursor(nil)); len(got) != 3 {
		t.Fatalf("cursor read %d rows, want 3", len(got))
	}
	if tb.NumRows() != 4 {
		t.Fatalf("live table rows = %d, want 4", tb.NumRows())
	}
}

func TestSnapshotSurvivesReplace(t *testing.T) {
	db := NewMemDB()
	mkTable(t, db, "t", 2)
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateOrReplaceTable("t", []Column{{Name: "other", Type: "int"}}); err != nil {
		t.Fatal(err)
	}
	v, _ := snap.Table("t")
	if v.NumRows() != 2 {
		t.Fatalf("snapshot rows = %d, want 2", v.NumRows())
	}
	if _, ok := v.ColumnIndex("v"); !ok {
		t.Fatal("snapshot lost original columns")
	}
}

func TestSnapshotUnknownTable(t *testing.T) {
	db := NewMemDB()
	if _, err := db.Snapshot("ghost"); err == nil {
		t.Fatal("snapshot of missing table succeeded")
	}
}

func TestFreezeSharesRowsWithoutCopy(t *testing.T) {
	db := NewMemDB()
	mkTable(t, db, "t", 5)
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := snap.Table("t")
	frozen := v.Freeze()
	if frozen.NumRows() != 5 {
		t.Fatalf("frozen rows = %d", frozen.NumRows())
	}
	// Attach into a scratch DB and read through the normal API.
	scratch := NewMemDB()
	if err := scratch.Attach(frozen); err != nil {
		t.Fatal(err)
	}
	got, ok := scratch.Table("t")
	if !ok || got.NumRows() != 5 {
		t.Fatal("attached table unreadable")
	}
	// Appending to the frozen table must not disturb the snapshot
	// (capacity-capped slice forces reallocation).
	if err := frozen.Insert(Row{expr.Int(100), expr.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != 5 {
		t.Fatalf("snapshot grew to %d rows", v.NumRows())
	}
	if err := scratch.Attach(frozen); err == nil {
		t.Fatal("double attach succeeded")
	}
}

func TestVersionBumpsOnStructuralChanges(t *testing.T) {
	db := NewMemDB()
	v0 := db.Version()
	mkTable(t, db, "a", 1)
	if db.Version() == v0 {
		t.Fatal("create did not bump version")
	}
	v1 := db.Version()
	if _, err := db.CreateOrReplaceTable("a", []Column{{Name: "x", Type: "int"}}); err != nil {
		t.Fatal(err)
	}
	if db.Version() == v1 {
		t.Fatal("replace did not bump version")
	}
}

func TestPublishSwapsAtomically(t *testing.T) {
	db := NewMemDB()
	mkTable(t, db, "t", 2)
	staged, err := NewStagingTable("t", []Column{{Name: "id", Type: "int"}, {Name: "v", Type: "string"}})
	if err != nil {
		t.Fatal(err)
	}
	// While staged, the live table is untouched.
	if err := staged.Insert(Row{expr.Int(7), expr.Str("staged")}); err != nil {
		t.Fatal(err)
	}
	live, _ := db.Table("t")
	if live.NumRows() != 2 {
		t.Fatalf("live rows = %d during staging", live.NumRows())
	}
	vBefore := db.Version()
	db.Publish(staged)
	if db.Version() == vBefore {
		t.Fatal("publish did not bump version")
	}
	now, _ := db.Table("t")
	if now.NumRows() != 1 {
		t.Fatalf("published rows = %d, want 1", now.NumRows())
	}
	// Publishing under a new name registers it.
	fresh, _ := NewStagingTable("u", []Column{{Name: "id", Type: "int"}})
	db.Publish(fresh)
	if _, ok := db.Table("u"); !ok {
		t.Fatal("publish of new table did not register it")
	}
}

// TestSnapshotConcurrentWithWrites races snapshots against appends and
// replaces; run under -race this checks the locking discipline.
func TestSnapshotConcurrentWithWrites(t *testing.T) {
	db := NewMemDB()
	mkTable(t, db, "t", 10)
	var readers sync.WaitGroup
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%5 == 4 {
				staged, _ := NewStagingTable("t", []Column{{Name: "id", Type: "int"}, {Name: "v", Type: "string"}})
				for j := 0; j < 10; j++ {
					_ = staged.Insert(Row{expr.Int(int64(j)), expr.Str("r")})
				}
				db.Publish(staged)
				continue
			}
			tb, _ := db.Table("t")
			_ = tb.Insert(Row{expr.Int(int64(i)), expr.Str("w")})
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				snap, err := db.Snapshot("t")
				if err != nil {
					t.Error(err)
					return
				}
				v, _ := snap.Table("t")
				n := int(v.NumRows())
				seen := 0
				cur := v.Cursor(nil)
				for b := cur.Next(3); b != nil; b = cur.Next(3) {
					seen += len(b)
				}
				if seen != n {
					t.Errorf("snapshot read %d rows, claimed %d", seen, n)
					return
				}
			}
		}()
	}
	// Stop the writer only after every reader finishes, so writes
	// overlap reads for the whole test.
	readers.Wait()
	close(stop)
	<-writerDone
}
