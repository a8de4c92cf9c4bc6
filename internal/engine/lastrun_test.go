package engine

import (
	"fmt"
	"strings"
	"testing"

	"quarry/internal/storage"
)

// TestLastRunCountsAreCapacitiesOnly runs the unified flow of the four
// canonical requirements on one disk-backed warehouse, run after run,
// handing each the counts of an earlier run (Options.Last) as they
// were, as 0, as 1 and 100 times too large. The counts size what a run
// grows; every run loads byte-identical tables, value kinds and float
// bits included, and counts the same rows as the run that had none.
func TestLastRunCountsAreCapacitiesOnly(t *testing.T) {
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := benchIntegratedDesignIn(t, 5, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first, err := Run(d, db)
	if err != nil {
		t.Fatal(err)
	}
	want := loadedExactly(first, db)
	for _, times := range []int64{-1, 0, 1, 100} {
		for _, opts := range []Options{{}, {Parallelism: 4, BatchSize: 7}} {
			opts.Last = lastCounts(first.Stats, times)
			res, err := RunWithOptions(d, db, opts)
			if err != nil {
				t.Fatalf("counts ×%d, %+v: %v", times, opts, err)
			}
			if got := loadedExactly(res, db); got != want {
				t.Fatalf("counts ×%d, %+v: loaded\n%s\nwant\n%s", times, opts, got, want)
			}
		}
	}
}

// loadedExactly renders a run's row counts and every table it loaded,
// each value with its kind and a float's bits.
func loadedExactly(res *Result, db *storage.DB) string {
	var b strings.Builder
	for _, s := range res.Stats {
		fmt.Fprintf(&b, "%s %d %d\n", s.Node, s.RowsIn, s.RowsOut)
	}
	for _, table := range db.TableNames() {
		if _, loaded := res.Loaded[table]; !loaded {
			continue
		}
		tbl, _ := db.Table(table)
		fmt.Fprintf(&b, "%s %v\n", table, tbl.Columns)
		for _, row := range tbl.Rows() {
			for _, v := range row {
				b.WriteString(exactly(v) + "|")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
