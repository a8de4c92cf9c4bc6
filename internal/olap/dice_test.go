package olap_test

import (
	"strings"
	"testing"

	"quarry/internal/core"
	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/sources"
	"quarry/internal/storage"
	"quarry/internal/xrq"

	"quarry/internal/mapping"
	"quarry/internal/ontology"
)

// diceFixture builds a tiny two-dimension warehouse with hand-picked
// data so the diamond fixpoint can be verified by hand. The cube is
//
//	sales(store, item): one detail row per (store, item) pair below,
//	each with amount 1 (COUNT carats == row counts).
//
//	        i1  i2  i3
//	   s1    x   x   x
//	   s2    x   x
//	   s3    x
//
// With thresholds store>=2 and item>=2: s3 dies (1 row), which drops
// i1 to 2... i3 dies (1 row), which drops s1 to 2. Fixpoint: rows
// {(s1,i1),(s1,i2),(s2,i1),(s2,i2)} — the 2×2 diamond.
func diceFixture(t *testing.T) *olap.Engine {
	t.Helper()
	onto := ontology.New("mini")
	if _, err := onto.AddConcept("Store", "Store"); err != nil {
		t.Fatal(err)
	}
	if err := onto.AddProperty("Store", "store_name", "string", "store"); err != nil {
		t.Fatal(err)
	}
	if _, err := onto.AddConcept("Item", "Item"); err != nil {
		t.Fatal(err)
	}
	if err := onto.AddProperty("Item", "item_name", "string", "item"); err != nil {
		t.Fatal(err)
	}
	if _, err := onto.AddConcept("Sale", "Sale"); err != nil {
		t.Fatal(err)
	}
	if err := onto.AddProperty("Sale", "amount", "float", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := onto.AddObjectProperty("sale_store", "", "Sale", "Store", ontology.ManyToOne); err != nil {
		t.Fatal(err)
	}
	if err := onto.AddObjectProperty("sale_item", "", "Sale", "Item", ontology.ManyToOne); err != nil {
		t.Fatal(err)
	}
	if err := onto.Validate(); err != nil {
		t.Fatal(err)
	}

	cat := sources.NewCatalog()
	if _, err := cat.AddStore("mini", "relational"); err != nil {
		t.Fatal(err)
	}
	rels := []*sources.Relation{
		{Name: "stores", Attributes: []sources.Attribute{{Name: "sid", Type: "int"}, {Name: "store_name", Type: "string"}}, PrimaryKey: []string{"sid"}},
		{Name: "items", Attributes: []sources.Attribute{{Name: "iid", Type: "int"}, {Name: "item_name", Type: "string"}}, PrimaryKey: []string{"iid"}},
		{Name: "sales", Attributes: []sources.Attribute{
			{Name: "sale_id", Type: "int"}, {Name: "store_id", Type: "int"},
			{Name: "item_id", Type: "int"}, {Name: "amount", Type: "float"},
		}, PrimaryKey: []string{"sale_id"},
			ForeignKeys: []sources.ForeignKey{
				{Columns: []string{"store_id"}, RefRelation: "stores", RefColumns: []string{"sid"}},
				{Columns: []string{"item_id"}, RefRelation: "items", RefColumns: []string{"iid"}},
			}},
	}
	for _, r := range rels {
		if err := cat.AddRelation("mini", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}

	m := mapping.New("mini")
	cms := []mapping.ConceptMapping{
		{Concept: "Store", Store: "mini", Relation: "stores", Attrs: map[string]string{"store_name": "store_name"}, Key: []string{"sid"}},
		{Concept: "Item", Store: "mini", Relation: "items", Attrs: map[string]string{"item_name": "item_name"}, Key: []string{"iid"}},
		{Concept: "Sale", Store: "mini", Relation: "sales", Attrs: map[string]string{"amount": "amount"}, Key: []string{"sale_id"}},
	}
	for _, cm := range cms {
		if err := m.MapConcept(cm); err != nil {
			t.Fatal(err)
		}
	}
	pms := []mapping.PropertyMapping{
		{Property: "sale_store", DomainCols: []string{"store_id"}, RangeCols: []string{"sid"}},
		{Property: "sale_item", DomainCols: []string{"item_id"}, RangeCols: []string{"iid"}},
	}
	for _, pm := range pms {
		if err := m.MapProperty(pm); err != nil {
			t.Fatal(err)
		}
	}

	db := storage.NewMemDB()
	stores, err := db.CreateTable("stores", []storage.Column{{Name: "sid", Type: "int"}, {Name: "store_name", Type: "string"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"s1", "s2", "s3"} {
		if err := stores.Insert(storage.Row{expr.Int(int64(i + 1)), expr.Str(n)}); err != nil {
			t.Fatal(err)
		}
	}
	items, err := db.CreateTable("items", []storage.Column{{Name: "iid", Type: "int"}, {Name: "item_name", Type: "string"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"i1", "i2", "i3"} {
		if err := items.Insert(storage.Row{expr.Int(int64(i + 1)), expr.Str(n)}); err != nil {
			t.Fatal(err)
		}
	}
	sales, err := db.CreateTable("sales", []storage.Column{
		{Name: "sale_id", Type: "int"}, {Name: "store_id", Type: "int"},
		{Name: "item_id", Type: "int"}, {Name: "amount", Type: "float"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := [][2]int64{{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {3, 1}}
	for i, c := range cells {
		if err := sales.Insert(storage.Row{expr.Int(int64(i + 1)), expr.Int(c[0]), expr.Int(c[1]), expr.Float(1)}); err != nil {
			t.Fatal(err)
		}
	}

	p, err := core.New(core.Config{Ontology: onto, Mapping: m, Catalog: cat, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	req := &xrq.Requirement{
		ID:   "IR_sales",
		Name: "amount per store and item",
		Dimensions: []xrq.Dimension{
			{Concept: "Store.store_name"},
			{Concept: "Item.item_name"},
		},
		Measures: []xrq.Measure{{ID: "sales_amt", Function: "Sale.amount"}},
		Aggs: []xrq.Aggregation{
			{Order: 1, Dimension: "Store.store_name", Measure: "sales_amt", Function: xrq.AggSum},
		},
	}
	if _, err := p.AddRequirement(req); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDiceFixpointByHand checks the cascading fixpoint on the
// hand-built cube, on both executors.
func TestDiceFixpointByHand(t *testing.T) {
	e := diceFixture(t)
	q := olap.CubeQuery{
		Fact:     "fact_table_sales_amt",
		GroupBy:  []string{"store_name", "item_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "sales_amt"}},
		Dice: &olap.DiceSpec{
			Func:       "COUNT",
			Thresholds: map[string]float64{"store_name": 2, "item_name": 2},
		},
	}
	fast, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := e.QueryStarFlow(q)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "hand dice", fast, oracle)
	var cells []string
	for _, row := range fast.Rows {
		cells = append(cells, strings.Trim(row[0].String(), "'")+"/"+strings.Trim(row[1].String(), "'"))
	}
	want := []string{"s1/i1", "s1/i2", "s2/i1", "s2/i2"}
	if len(cells) != len(want) {
		t.Fatalf("diamond = %v, want %v", cells, want)
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("diamond = %v, want %v", cells, want)
		}
	}
}

// TestDiceEmptyDiamond: thresholds nothing can meet prune everything.
func TestDiceEmptyDiamond(t *testing.T) {
	e := diceFixture(t)
	q := olap.CubeQuery{
		Fact:     "fact_table_sales_amt",
		GroupBy:  []string{"store_name", "item_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "sales_amt"}},
		Dice: &olap.DiceSpec{
			Func:       "COUNT",
			Thresholds: map[string]float64{"store_name": 100},
		},
	}
	fast, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := e.QueryStarFlow(q)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "empty diamond", fast, oracle)
	if len(fast.Rows) != 0 {
		t.Fatalf("rows = %v, want none", fast.Rows)
	}
}

// TestDiceSumCarat: SUM carats over the amount measure.
func TestDiceSumCarat(t *testing.T) {
	e := diceFixture(t)
	q := olap.CubeQuery{
		Fact:     "fact_table_sales_amt",
		GroupBy:  []string{"store_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "sales_amt"}},
		Dice: &olap.DiceSpec{
			Func:       "SUM",
			Col:        "sales_amt",
			Thresholds: map[string]float64{"store_name": 2},
		},
	}
	fast, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := e.QueryStarFlow(q)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "sum carat", fast, oracle)
	// s1 has 3 units, s2 has 2, s3 has 1 → s3 pruned.
	if len(fast.Rows) != 2 {
		t.Fatalf("rows = %v, want s1 and s2", fast.Rows)
	}
}

// TestDiceValidation: malformed dices are rejected before execution.
func TestDiceValidation(t *testing.T) {
	e := diceFixture(t)
	base := olap.CubeQuery{
		Fact:     "fact_table_sales_amt",
		GroupBy:  []string{"store_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "sales_amt"}},
	}
	cases := map[string]*olap.DiceSpec{
		"unknown carat":       {Func: "MEDIAN", Thresholds: map[string]float64{"store_name": 1}},
		"sum without column":  {Func: "SUM", Thresholds: map[string]float64{"store_name": 1}},
		"count with column":   {Func: "COUNT", Col: "sales_amt", Thresholds: map[string]float64{"store_name": 1}},
		"no thresholds":       {Func: "COUNT"},
		"ungrouped threshold": {Func: "COUNT", Thresholds: map[string]float64{"item_name": 1}},
		"unknown column":      {Func: "COUNT", Thresholds: map[string]float64{"ghost": 1}},
	}
	for name, spec := range cases {
		q := base
		q.Dice = spec
		if _, err := e.Query(q); err == nil {
			t.Errorf("%s: dice accepted", name)
		}
		if _, err := e.QueryStarFlow(q); err == nil {
			t.Errorf("%s: oracle accepted dice", name)
		}
	}
}
