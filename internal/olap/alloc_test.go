package olap_test

import (
	"testing"

	"quarry/internal/olap"
	"quarry/internal/tpch"
)

// TestFastPathAllocationBudget holds the fast path to its allocation
// shape: a fixed cost per query (plan, one slab and index per
// dimension, aggregator groups) plus at most a few allocations per
// 1024-row fact batch — never one per fact row. The row-materialising
// probe this replaced made four per fact row on this query.
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
	batches := float64(factRows/1024 + 1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d fact rows, %.0f allocations per query", factRows, allocs)
	if budget := 600 + 8*batches; allocs > budget {
		t.Fatalf("%.0f allocations per query over %d fact rows, budget %.0f: something allocates per row again", allocs, factRows, budget)
	}
}
