package olap_test

import (
	"runtime"
	"testing"

	"quarry/internal/olap"
	"quarry/internal/tpch"
)

// TestFastPathAllocationBudget holds the fast path to its allocation
// shape: a fixed cost per query (plan, dimension vectors and indexes,
// aggregator groups, one set of chunk-sized scratch vectors) plus a few
// allocations per chunk — never one per fact row, and no expr.Value
// per fact row: the bytes bound is a third of what the row-slab probe
// this replaced allocated on the same query (838 208 bytes at SF 20 on
// either backend, 48 bytes per value of every joined row).
func TestFastPathAllocationBudget(t *testing.T) {
	p, _ := platformWith(t, 20, 42, tpch.CanonicalRequirements()...)
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	q := olap.CubeQuery{Fact: "fact_table_quantity", GroupBy: []string{"c_mktsegment", "o_orderpriority"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "quantity"}, {Out: "n", Func: "COUNT"}}}
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var factRows int64
	for _, row := range res.Rows {
		factRows += row[len(row)-1].AsInt()
	}
	if factRows < 2000 {
		t.Fatalf("only %d fact rows joined: too few to tell a per-row cost from the fixed one", factRows)
	}
	// The fact and the larger dimension are read a chunk (a page, or
	// 1024 tail rows) at a time.
	chunks := float64(2 * (factRows/1024 + 1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("%d fact rows: %.0f allocations, %d bytes per query", factRows, allocs, bytes)
	if budget := 600 + 8*chunks; allocs > budget {
		t.Fatalf("%.0f allocations per query over %d fact rows, budget %.0f: something allocates per row again", allocs, factRows, budget)
	}
	if third := uint64(838_208 / 3); bytes > third {
		t.Fatalf("%d bytes per query, budget %d: a row form of the join is back", bytes, third)
	}
}
