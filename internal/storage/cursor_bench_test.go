package storage_test

import (
	"testing"

	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// BenchmarkCursorVectors_SF200 reads three columns of the SF 200
// lineitem relation (30 000 rows, the source of the quantity fact) off
// warm disk pages through each of the cursor's two reads: Next hands
// out the pages' rows and the reader picks its columns out of them,
// NextVectors hands out just those columns as typed vectors. Both sum
// the same values, so the pair compares what a scan costs a consumer of
// either form, in rows per second.
func BenchmarkCursorVectors_SF200(b *testing.B) {
	db, err := storage.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tpch.Generate(db, 200, 42); err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	snap, err := db.Snapshot("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	view, _ := snap.Table("lineitem")
	cols := make([]int, 3)
	for i, name := range []string{"l_orderkey", "l_suppkey", "l_quantity"} {
		cols[i], _ = view.ColumnIndex(name)
	}
	rowScan := func() (n int, sum float64) {
		cur := view.Cursor(nil)
		for batch := cur.Next(1024); batch != nil; batch = cur.Next(1024) {
			for _, row := range batch {
				q, _ := row[cols[2]].AsFloat()
				sum += float64(row[cols[0]].AsInt()+row[cols[1]].AsInt()) + q
			}
			n += len(batch)
		}
		return n, sum
	}
	vectorScan := func() (n int, sum float64) {
		cur := view.Cursor(nil)
		vecs := make([]*storage.Vector, len(cols))
		for rows := cur.NextVectors(cols, vecs); rows > 0; rows = cur.NextVectors(cols, vecs) {
			for i := 0; i < rows; i++ {
				sum += float64(vecs[0].Ints[i]+vecs[1].Ints[i]) + vecs[2].Floats[i]
			}
			n += rows
		}
		return n, sum
	}
	wantN, wantSum := rowScan()
	if gotN, gotSum := vectorScan(); gotN != wantN || gotSum != wantSum {
		b.Fatalf("vectors read %d rows summing %v, rows %d summing %v", gotN, gotSum, wantN, wantSum)
	}
	for name, scan := range map[string]func() (int, float64){"rows": rowScan, "vectors": vectorScan} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				n, _ := scan()
				rows += n
			}
			b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
