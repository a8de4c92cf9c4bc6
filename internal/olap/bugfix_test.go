package olap_test

import (
	"context"
	"errors"
	"testing"

	"quarry/internal/olap"
	"quarry/internal/tpch"
)

// TestQueryContextCancelled: a cancelled context aborts both
// executors instead of running the query to completion — the serving
// layer relies on this to stop burning a pool slot when the client
// has disconnected.
func TestQueryContextCancelled(t *testing.T) {
	p, _ := platformWith(t, 1, 42, tpch.RevenueRequirement())
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	q := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"n_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("fast path under cancelled context = %v, want context.Canceled", err)
	}
	if _, err := e.QueryStarFlowContext(ctx, q); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("star-flow oracle under cancelled context = %v, want context.Canceled", err)
	}
	// Sanity: the same query still answers under a live context.
	if _, err := e.QueryContext(context.Background(), q); err != nil {
		t.Fatalf("query under background context: %v", err)
	}
	if _, err := e.QueryStarFlowContext(context.Background(), q); err != nil {
		t.Fatalf("oracle under background context: %v", err)
	}
}

// TestMatAggFilterWidenedFloatSumServed inverts the PR 6 admission
// gate. A float SUM whose filter reads a column it does not group by
// logs a pattern finer than the query, so its own entry can only
// answer it by merging groups — which the store once could not do
// exactly for float sums, and therefore refused to log at all. Entries
// now hold the kernel's partial states and merge them with the exact
// algebra the shard gather uses: the pattern is logged, takes the only
// slot, and serves its generating query — and the same query under
// another literal — byte-identically to the oracle.
func TestMatAggFilterWidenedFloatSumServed(t *testing.T) {
	p, _ := platformWith(t, 3, 42, tpch.RevenueRequirement())
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	m := olap.NewMatAgg(1)
	e = e.WithMatAgg(m)
	widened := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_brand"},
		Filter:   "n_name = 'SPAIN'",
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
	}
	for i := 0; i < 8; i++ {
		if _, err := e.Query(widened); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Refresh(e); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Patterns == 0 || st.Materialized != 1 {
		t.Fatalf("filter-widened float-SUM pattern not logged and materialized: %+v", st)
	}
	for _, filter := range []string{"n_name = 'SPAIN'", "n_name != 'SPAIN'", "n_name = 'SPAIN' AND p_brand > 'Brand#3'"} {
		q := widened
		q.Filter = filter
		before := m.Stats()
		fast, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := e.QueryStarFlow(q)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "filter-widened float SUM ("+filter+")", fast, oracle)
		after := m.Stats()
		if after.Rewrites != before.Rewrites+1 || after.Misses != before.Misses {
			t.Fatalf("filter %q not served by merging the finer entry: %+v → %+v", filter, before, after)
		}
	}
}

// TestPlanRefusesResultColumnsTheOracleCannotName: the result's column
// names are distinct and every measure's survives the star-flow
// oracle's aggregate list, so both executors refuse the same queries —
// the fast path used to answer these and the oracle to refuse them.
// A name with inner white space is an ordinary name on both.
func TestPlanRefusesResultColumnsTheOracleCannotName(t *testing.T) {
	p, _ := platformWith(t, 1, 42, tpch.RevenueRequirement())
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	query := func(groupBy []string, outs ...string) olap.CubeQuery {
		q := olap.CubeQuery{Fact: "fact_table_revenue", GroupBy: groupBy}
		for _, out := range outs {
			q.Measures = append(q.Measures, olap.MeasureSpec{Out: out, Func: "COUNT"})
		}
		return q
	}
	for name, q := range map[string]olap.CubeQuery{
		"no output name":        query([]string{"n_name"}, ""),
		"padded output name":    query([]string{"n_name"}, " n"),
		"colon in output name":  query([]string{"n_name"}, "n:COUNT"),
		"semicolon in name":     query([]string{"n_name"}, "n;m"),
		"output names repeat":   query([]string{"n_name"}, "n", "n"),
		"output is a group col": query([]string{"n_name"}, "n_name"),
		"group column repeats":  query([]string{"n_name", "n_name"}, "n"),
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("%s: the fast path answered", name)
		}
		if _, err := e.QueryStarFlow(q); err == nil {
			t.Errorf("%s: the oracle answered", name)
		}
	}
	q := query([]string{"n_name"}, "row count")
	if _, err := e.Query(q); err != nil {
		t.Errorf("inner white space: %v", err)
	}
	if _, err := e.QueryStarFlow(q); err != nil {
		t.Errorf("inner white space, oracle: %v", err)
	}
}
