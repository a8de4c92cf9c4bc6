package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// BenchmarkHashAggregator_AddVectors times the aggregation kernel's
// vector entry alone, through the exported API: 60 000 rows in
// 1 024-row batches, grouped by two int columns, with SUM over an int
// column, SUM over a float column, COUNT(*) and MIN over a string
// column, then Finalize. etl has the ETL Aggregation's group count
// (15 000 groups, about four rows each) in random order; dash folds
// the same rows into 25. etl_runs is the unified flow's quantity fact
// as it arrives: its rows come in order-key runs.
func BenchmarkHashAggregator_AddVectors(b *testing.B) {
	for _, shape := range []struct {
		name   string
		groups int
	}{{"etl", 15000}, {"dash", 25}} {
		b.Run(shape.name, func(b *testing.B) {
			benchAddVectors(b, shape.groups)
		})
	}
	b.Run("etl_runs", benchAddVectorsRuns)
}

// benchAddVectorsRuns folds what AGGREGATION_fact_table_quantity folds:
// SUM of an int quantity grouped by (customer, order) over line items
// that arrive in order-key runs of one to seven rows, 15 000 orders of
// 1 500 customers, in 1 024-row batches.
func benchAddVectorsRuns(b *testing.B) {
	const orders, customers, batch = 15000, 1500, 1024
	r := rand.New(rand.NewSource(41))
	var cust, order, qty []int64
	for o := int64(1); o <= orders; o++ {
		c := r.Int63n(customers) + 1
		for range 1 + r.Intn(7) {
			cust, order, qty = append(cust, c), append(order, o), append(qty, r.Int63n(50)+1)
		}
	}
	rows := len(qty)
	ints := func(v []int64) *storage.Vector { return &storage.Vector{Kind: expr.KindInt, Ints: v} }
	type vectors struct {
		n                int
		groups, measures []Column
	}
	var batches []vectors
	for at := 0; at < rows; at += batch {
		hi := min(at+batch, rows)
		batches = append(batches, vectors{
			n:        hi - at,
			groups:   []Column{{Vec: ints(cust[at:hi])}, {Vec: ints(order[at:hi])}},
			measures: []Column{{Vec: ints(qty[at:hi])}},
		})
	}
	aggs := []xlm.AggSpec{{Func: "SUM", Col: "l_quantity", Out: "quantity"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := NewHashAggregator([]int{0, 1}, aggs, []int{2})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range batches {
			if err := a.AddVectors(v.n, v.groups, v.measures); err != nil {
				b.Fatal(err)
			}
		}
		out, err := a.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != orders {
			b.Fatalf("%d groups, want %d", len(out), orders)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func benchAddVectors(b *testing.B, groups int) {
	const rows, batch = 60000, 1024
	aggs := []xlm.AggSpec{
		{Func: "SUM", Col: "qty", Out: "q"}, {Func: "SUM", Col: "price", Out: "p"},
		{Func: "COUNT", Out: "n"}, {Func: "MIN", Col: "name", Out: "first"},
	}
	// Rows are g1, g2, qty, price, name; every group gets rows/groups
	// rows, spread over the batches in a fixed random order.
	r := rand.New(rand.NewSource(31))
	perm := r.Perm(rows)
	all := make([][]expr.Value, rows)
	for i := range all {
		id := perm[i] % groups
		all[i] = []expr.Value{
			expr.Int(int64(id / 100)), expr.Int(int64(id % 100)),
			expr.Int(r.Int63n(50) + 1), expr.Float(float64(r.Intn(100000)) / 100),
			expr.Str(fmt.Sprintf("name#%03d", r.Intn(1000))),
		}
	}
	type vectors struct {
		n                int
		groups, measures []Column
	}
	var batches []vectors
	for at := 0; at < rows; at += batch {
		part := all[at:min(at+batch, rows)]
		col := func(c int) *storage.Vector { return storage.VectorOf(valuesAt(part, c)) }
		batches = append(batches, vectors{
			n:        len(part),
			groups:   []Column{{Vec: col(0)}, {Vec: col(1)}},
			measures: []Column{{Vec: col(2)}, {Vec: col(3)}, {}, {Vec: col(4)}},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := NewHashAggregator([]int{0, 1}, aggs, []int{2, 3, -1, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range batches {
			if err := a.AddVectors(v.n, v.groups, v.measures); err != nil {
				b.Fatal(err)
			}
		}
		out, err := a.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != groups {
			b.Fatalf("%d groups, want %d", len(out), groups)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
