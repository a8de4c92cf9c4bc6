package olap_test

import (
	"slices"
	"strings"
	"testing"

	"quarry/internal/core"
	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// deployedPlatform builds a platform, adds the revenue requirement
// and populates the DW.
func deployedPlatform(t *testing.T) (*core.Platform, *storage.DB) {
	t.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(5)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, 5, 42); err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return p, db
}

func TestStarQueryOverDeployedDW(t *testing.T) {
	p, db := deployedPlatform(t)
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	// Total revenue per supplier nation (a roll-up via dim_supplier).
	res, err := e.Query(olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"n_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "n_name" || res.Columns[1] != "total" {
		t.Fatalf("columns = %v", res.Columns)
	}
	// The revenue fact is sliced to SPAIN at ETL time, so all rows
	// roll up to the single nation SPAIN.
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "SPAIN" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Cross-check the total against the fact table itself.
	fact, _ := db.Table("fact_table_revenue")
	rIdx := slices.IndexFunc(fact.Columns, func(c storage.Column) bool { return c.Name == "revenue" })
	var want float64
	for _, r := range fact.Rows() {
		f, _ := r[rIdx].AsFloat()
		want += f
	}
	got, _ := res.Rows[0][1].AsFloat()
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("total = %v, want %v", got, want)
	}
	// The scratch answer table is cleaned up.
	if _, ok := db.Table("__olap_answer"); ok {
		t.Error("answer table leaked")
	}
}

func TestQueryWithFilterAndMultipleDims(t *testing.T) {
	p, _ := deployedPlatform(t)
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(olap.CubeQuery{
		Fact:    "fact_table_revenue",
		GroupBy: []string{"p_brand", "s_name"},
		Measures: []olap.MeasureSpec{
			{Out: "avg_rev", Func: "AVG", Col: "revenue"},
			{Out: "n", Func: "COUNT", Col: "revenue"},
		},
		Filter: "p_retailprice > 950",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if len(res.Columns) != 4 {
		t.Errorf("columns = %v", res.Columns)
	}
	// Sorted by group columns.
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1][0].AsString(), res.Rows[i][0].AsString()
		if prev > cur {
			t.Fatalf("rows not ordered: %q > %q", prev, cur)
		}
	}
}

func TestQueryGroupByFactColumn(t *testing.T) {
	p, _ := deployedPlatform(t)
	e, _ := p.OLAP()
	// Grouping by a fact column needs no dimension join at all.
	res, err := e.Query(olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"s_suppkey"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestQueryErrors(t *testing.T) {
	p, _ := deployedPlatform(t)
	e, _ := p.OLAP()
	cases := map[string]olap.CubeQuery{
		"no group":       {Fact: "fact_table_revenue", Measures: []olap.MeasureSpec{{Out: "t", Func: "SUM", Col: "revenue"}}},
		"no measures":    {Fact: "fact_table_revenue", GroupBy: []string{"n_name"}},
		"unknown fact":   {Fact: "ghost", GroupBy: []string{"x"}, Measures: []olap.MeasureSpec{{Out: "t", Func: "SUM", Col: "revenue"}}},
		"unknown column": {Fact: "fact_table_revenue", GroupBy: []string{"ghost_col"}, Measures: []olap.MeasureSpec{{Out: "t", Func: "SUM", Col: "revenue"}}},
		"bad aggregate":  {Fact: "fact_table_revenue", GroupBy: []string{"n_name"}, Measures: []olap.MeasureSpec{{Out: "t", Func: "MEDIAN", Col: "revenue"}}},
		"bad filter":     {Fact: "fact_table_revenue", GroupBy: []string{"n_name"}, Measures: []olap.MeasureSpec{{Out: "t", Func: "SUM", Col: "revenue"}}, Filter: "1 +"},
	}
	for name, q := range cases {
		if _, err := e.Query(q); err == nil {
			t.Errorf("%s: query succeeded", name)
		}
	}
}

func TestOLAPRequiresDesign(t *testing.T) {
	o, _ := tpch.Ontology()
	m, _ := tpch.Mapping()
	c, _ := tpch.Catalog(1)
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: storage.NewMemDB()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OLAP(); err == nil {
		t.Error("OLAP without design succeeded")
	}
}

// TestDWBeatsRawSources demonstrates the paper's §1 motivation: the
// same analytical answer computed from the pre-aggregated DW
// processes far fewer rows than recomputing from the raw sources.
func TestDWBeatsRawSources(t *testing.T) {
	p, db := deployedPlatform(t)
	e, _ := p.OLAP()
	res, err := e.Query(olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"n_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Raw recomputation: full lineitem scan (the fact table is orders
	// of magnitude smaller after ETL-time aggregation).
	li, _ := db.Table("lineitem")
	fact, _ := db.Table("fact_table_revenue")
	if fact.NumRows() >= li.NumRows() {
		t.Errorf("fact (%d rows) not smaller than raw lineitem (%d rows)", fact.NumRows(), li.NumRows())
	}
	_ = res
}

func TestResultValuesTyped(t *testing.T) {
	p, _ := deployedPlatform(t)
	e, _ := p.OLAP()
	res, err := e.Query(olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"r_name"},
		Measures: []olap.MeasureSpec{{Out: "mx", Func: "MAX", Col: "revenue"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[0].Kind() != expr.KindString {
			t.Errorf("group value kind = %v", r[0].Kind())
		}
		if !r[1].IsNumeric() {
			t.Errorf("measure kind = %v", r[1].Kind())
		}
	}
	if !strings.HasPrefix(res.Columns[0], "r_") {
		t.Errorf("columns = %v", res.Columns)
	}
}
