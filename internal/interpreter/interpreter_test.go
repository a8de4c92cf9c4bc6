package interpreter

import (
	"slices"
	"strings"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

func newTPCH(t *testing.T) *Interpreter {
	t.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(o, m, c)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInterpretRevenue(t *testing.T) {
	in := newTPCH(t)
	pd, err := in.Interpret(tpch.RevenueRequirement())
	if err != nil {
		t.Fatal(err)
	}
	if pd.FactConcept != "Lineitem" {
		t.Errorf("fact concept = %s", pd.FactConcept)
	}
	// MD side: Figure 3's fact_table_revenue star.
	f, ok := pd.MD.Fact("fact_table_revenue")
	if !ok {
		t.Fatalf("fact table missing; facts = %v", pd.MD.Facts)
	}
	m, ok := f.Measure("revenue")
	if !ok || m.Type != "float" {
		t.Errorf("measure = %+v, %v", m, ok)
	}
	sup, ok := pd.MD.Dimension("Supplier")
	if !ok {
		t.Fatal("Supplier dimension missing")
	}
	// Complemented roll-up chain: Supplier → Nation → Region.
	var levels []string
	for _, l := range sup.Levels {
		levels = append(levels, l.Name)
	}
	if strings.Join(levels, ",") != "Supplier,Nation,Region" {
		t.Errorf("Supplier levels = %v", levels)
	}
	if !sup.RollsUpTo("Supplier", "Region") {
		t.Error("Supplier must roll up to Region")
	}
	// The Nation slicer path rides the Supplier dimension (Figure 3),
	// not the equally-long Customer route.
	nationPath := pd.DimPaths["Nation"]
	var got string
	for i, s := range nationPath {
		if i == 0 {
			got = s.From
		}
		got += "→" + s.To
	}
	if got != "Lineitem→Partsupp→Supplier→Nation" {
		t.Errorf("Nation path = %s", got)
	}
	// ETL side: validated flow with the expected stages.
	for _, name := range []string{
		"DATASTORE_Lineitem", "EXTRACTION_Lineitem",
		"JOIN_Lineitem_Partsupp", "JOIN_Partsupp_Supplier", "JOIN_Supplier_Nation", "JOIN_Partsupp_Part",
		"SELECTION_n_name", "FUNCTION_revenue",
		"AGGREGATION_fact_table_revenue", "LOADER_fact_table_revenue",
		"PROJECTION_dim_part", "LOADER_dim_part",
		"JOINDIM_Supplier_Supplier_Nation", "JOINDIM_Supplier_Nation_Region", "LOADER_dim_supplier",
	} {
		if _, ok := pd.ETL.Node(name); !ok {
			t.Errorf("ETL node %q missing", name)
		}
	}
	agg, _ := pd.ETL.Node("AGGREGATION_fact_table_revenue")
	if agg.Param("group") != "p_partkey,s_suppkey" {
		t.Errorf("group = %q", agg.Param("group"))
	}
	if agg.Param("aggregates") != "revenue:AVG:revenue" {
		t.Errorf("aggregates = %q", agg.Param("aggregates"))
	}
	sel, _ := pd.ETL.Node("SELECTION_n_name")
	if sel.Param("predicate") != "n_name = 'SPAIN'" {
		t.Errorf("slicer predicate = %q", sel.Param("predicate"))
	}
}

func TestInterpretNetProfit(t *testing.T) {
	in := newTPCH(t)
	pd, err := in.Interpret(tpch.NetProfitRequirement())
	if err != nil {
		t.Fatal(err)
	}
	// Partsupp is the most specific measure concept (it determines
	// Part; Part does not determine Partsupp).
	if pd.FactConcept != "Partsupp" {
		t.Errorf("fact concept = %s", pd.FactConcept)
	}
	if _, ok := pd.MD.Fact("fact_table_netprofit"); !ok {
		t.Error("fact_table_netprofit missing")
	}
	// The flow extracts partsupp (Figure 3's DATASTORE_Partsupp).
	if _, ok := pd.ETL.Node("DATASTORE_Partsupp"); !ok {
		t.Error("DATASTORE_Partsupp missing")
	}
}

func TestInterpretAllCanonical(t *testing.T) {
	in := newTPCH(t)
	for _, r := range tpch.CanonicalRequirements() {
		pd, err := in.Interpret(r)
		if err != nil {
			t.Errorf("%s: %v", r.ID, err)
			continue
		}
		if err := pd.MD.Validate(); err != nil {
			t.Errorf("%s MD: %v", r.ID, err)
		}
		if err := pd.ETL.Validate(); err != nil {
			t.Errorf("%s ETL: %v", r.ID, err)
		}
	}
}

func TestInterpretGenerated(t *testing.T) {
	in := newTPCH(t)
	for _, r := range tpch.GenerateRequirements(24) {
		if _, err := in.Interpret(r); err != nil {
			t.Errorf("%s: %v", r.ID, err)
		}
	}
}

func TestInterpretRejectsNonFunctionalDimension(t *testing.T) {
	in := newTPCH(t)
	// Measures on Orders, dimension on Lineitem: an order has many
	// lineitems, so Lineitem is not functionally determined — the MD
	// integrity violation the interpreter must refuse.
	r := &xrq.Requirement{
		ID:         "IR_bad",
		Dimensions: []xrq.Dimension{{Concept: "Lineitem.l_returnflag"}},
		Measures:   []xrq.Measure{{ID: "total", Function: "Orders.o_totalprice"}},
	}
	_, err := in.Interpret(r)
	if err == nil || !strings.Contains(err.Error(), "MD integrity") {
		t.Errorf("expected MD integrity violation, got %v", err)
	}
}

func TestInterpretRejectsConstantMeasures(t *testing.T) {
	in := newTPCH(t)
	r := &xrq.Requirement{
		ID:         "IR_const",
		Dimensions: []xrq.Dimension{{Concept: "Part.p_name"}},
		Measures:   []xrq.Measure{{ID: "one", Function: "1 + 1"}},
	}
	if _, err := in.Interpret(r); err == nil {
		t.Error("constant-only measures accepted")
	}
}

func TestInterpretRejectsInvalidRequirement(t *testing.T) {
	in := newTPCH(t)
	r := &xrq.Requirement{ID: "IR_empty"}
	if _, err := in.Interpret(r); err == nil {
		t.Error("empty requirement accepted")
	}
}

func TestSatisfies(t *testing.T) {
	in := newTPCH(t)
	r := tpch.RevenueRequirement()
	pd, err := in.Interpret(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := Satisfies(pd.MD, r); err != nil {
		t.Errorf("Satisfies: %v", err)
	}
	// A requirement asking for a measure the schema lacks.
	other := r.Clone()
	other.Measures = []xrq.Measure{{ID: "ghost", Function: "Lineitem.l_tax"}}
	if err := Satisfies(pd.MD, other); err == nil {
		t.Error("missing measure satisfied")
	}
	// A requirement asking for a dimension attribute outside the star.
	other2 := r.Clone()
	other2.Dimensions = append(other2.Dimensions, xrq.Dimension{Concept: "Customer.c_name"})
	if err := Satisfies(pd.MD, other2); err == nil {
		t.Error("missing dimension satisfied")
	}
	// A roll-up attribute (Region.r_name via Supplier) IS satisfied.
	other3 := r.Clone()
	other3.Dimensions = []xrq.Dimension{{Concept: "Supplier.s_name"}, {Concept: "Region.r_name"}}
	if err := Satisfies(pd.MD, other3); err != nil {
		t.Errorf("roll-up attribute not satisfied: %v", err)
	}
}

// TestEndToEndExecution interprets the revenue requirement, executes
// the generated ETL on a generated TPC-H instance, and checks the
// loaded fact table against a reference computation done directly on
// the source tables.
func TestEndToEndExecution(t *testing.T) {
	in := newTPCH(t)
	pd, err := in.Interpret(tpch.RevenueRequirement())
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, 1, 42); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pd.ETL, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded["fact_table_revenue"] == 0 {
		t.Fatal("fact table empty; SPAIN slicer selected nothing")
	}
	if res.Loaded["dim_part"] == 0 || res.Loaded["dim_supplier"] == 0 {
		t.Errorf("dimension tables empty: %v", res.Loaded)
	}

	// Reference: avg revenue per (p_partkey, s_suppkey) where the
	// supplier's nation is SPAIN, computed straight off the sources.
	nation, _ := db.Table("nation")
	spain := map[int64]bool{}
	for _, r := range nation.Rows() {
		if r[1].AsString() == "SPAIN" {
			spain[r[0].AsInt()] = true
		}
	}
	supplier, _ := db.Table("supplier")
	spainSupp := map[int64]bool{}
	for _, r := range supplier.Rows() {
		if spain[r[2].AsInt()] {
			spainSupp[r[0].AsInt()] = true
		}
	}
	type key struct{ p, s int64 }
	sums := map[key]float64{}
	counts := map[key]int64{}
	lineitem, _ := db.Table("lineitem")
	for _, r := range lineitem.Rows() {
		p, s := r[1].AsInt(), r[2].AsInt()
		if !spainSupp[s] {
			continue
		}
		price, _ := r[5].AsFloat()
		disc, _ := r[6].AsFloat()
		k := key{p, s}
		sums[k] += price * (1 - disc)
		counts[k]++
	}
	fact, _ := db.Table("fact_table_revenue")
	if int(fact.NumRows()) != len(sums) {
		t.Fatalf("fact rows = %d, reference groups = %d", fact.NumRows(), len(sums))
	}
	pIdx, sIdx, rIdx := columnAt(fact, "p_partkey"), columnAt(fact, "s_suppkey"), columnAt(fact, "revenue")
	for _, r := range fact.Rows() {
		k := key{r[pIdx].AsInt(), r[sIdx].AsInt()}
		want := sums[k] / float64(counts[k])
		got, _ := r[rIdx].AsFloat()
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("group %v: revenue %v, want %v", k, got, want)
		}
	}
}

// TestDimensionTableContents verifies the denormalised supplier
// dimension (supplier ⋈ nation ⋈ region).
func TestDimensionTableContents(t *testing.T) {
	in := newTPCH(t)
	pd, err := in.Interpret(tpch.RevenueRequirement())
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewMemDB()
	sz, err := tpch.Generate(db, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(pd.ETL, db); err != nil {
		t.Fatal(err)
	}
	dim, ok := db.Table("dim_supplier")
	if !ok {
		t.Fatal("dim_supplier missing")
	}
	if int(dim.NumRows()) != sz.Supplier {
		t.Errorf("dim_supplier rows = %d, want %d", dim.NumRows(), sz.Supplier)
	}
	// Every row carries a nation name and a region name.
	nIdx := columnAt(dim, "n_name")
	if nIdx < 0 {
		t.Fatal("n_name column missing from dim_supplier")
	}
	rIdx := columnAt(dim, "r_name")
	if rIdx < 0 {
		t.Fatal("r_name column missing from dim_supplier")
	}
	for _, r := range dim.Rows() {
		if r[nIdx].AsString() == "" || r[rIdx].AsString() == "" {
			t.Fatal("denormalised dimension has empty roll-up values")
		}
	}
}

func TestDegenerateDimensionOnFactConcept(t *testing.T) {
	in := newTPCH(t)
	r := &xrq.Requirement{
		ID:         "IR_degenerate",
		Dimensions: []xrq.Dimension{{Concept: "Lineitem.l_returnflag"}},
		Measures:   []xrq.Measure{{ID: "qty", Function: "Lineitem.l_quantity"}},
	}
	pd, err := in.Interpret(r)
	if err != nil {
		t.Fatal(err)
	}
	// Dimension on the fact concept itself: its chain covers the full
	// to-one closure of Lineitem.
	dim, ok := pd.MD.Dimension("Lineitem")
	if !ok {
		t.Fatal("degenerate dimension missing")
	}
	if len(dim.Levels) < 2 {
		t.Errorf("expected complemented levels, got %d", len(dim.Levels))
	}
	if err := pd.ETL.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInterpreterRejectsBrokenMapping(t *testing.T) {
	o, _ := tpch.Ontology()
	c, _ := tpch.Catalog(1)
	m, _ := tpch.Mapping()
	// Damage the mapping so cross-validation fails.
	cm, _ := m.Concept("Part")
	cm.Relation = "ghost"
	if _, err := New(o, m, c); err == nil {
		t.Error("broken mapping accepted")
	}
}

func TestTwoAttributesSameConceptShareDimension(t *testing.T) {
	in := newTPCH(t)
	r := &xrq.Requirement{
		ID: "IR_two_attrs",
		Dimensions: []xrq.Dimension{
			{Concept: "Part.p_name"},
			{Concept: "Part.p_brand"},
		},
		Measures: []xrq.Measure{{ID: "qty", Function: "Lineitem.l_quantity"}},
	}
	pd, err := in.Interpret(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.MD.Dimensions) != 1 {
		t.Errorf("dimensions = %d, want 1 shared", len(pd.MD.Dimensions))
	}
	// Group-by must not repeat the key columns.
	agg, _ := pd.ETL.Node("AGGREGATION_fact_table_qty")
	if agg.Param("group") != "p_partkey" {
		t.Errorf("group = %q", agg.Param("group"))
	}
}

// columnAt is the position of a table's column, or -1.
func columnAt(t *storage.Table, name string) int {
	return slices.IndexFunc(t.Columns, func(c storage.Column) bool { return c.Name == name })
}
