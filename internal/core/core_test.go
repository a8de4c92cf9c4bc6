package core

import (
	"strings"
	"testing"

	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

func newPlatform(t *testing.T, sf float64) *Platform {
	t.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, sf, 42); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Ontology: o, Mapping: m, Catalog: c, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRequiresDomain(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestLifecycleAddIntegrateDeployRun(t *testing.T) {
	p := newPlatform(t, 2)
	// Scenario "DW design": two requirements from Figure 3.
	rep1, err := p.AddRequirement(tpch.RevenueRequirement())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.MD == nil || rep1.ETL == nil {
		t.Fatal("missing reports")
	}
	rep2, err := p.AddRequirement(tpch.NetProfitRequirement())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ETL.Reused == 0 {
		t.Error("second requirement reused nothing")
	}
	md, etl := p.Unified()
	if md == nil || etl == nil {
		t.Fatal("no unified designs")
	}
	if len(md.Facts) != 2 {
		t.Errorf("facts = %d", len(md.Facts))
	}
	if err := p.CheckSatisfiability(); err != nil {
		t.Fatal(err)
	}
	// Deployment artifacts.
	dep, err := p.Deploy("demo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dep.DDL, "CREATE TABLE \"fact_table_revenue\"") ||
		!strings.Contains(dep.DDL, "CREATE TABLE \"fact_table_netprofit\"") {
		t.Error("DDL missing fact tables")
	}
	if !strings.Contains(dep.PDI, "<transformation>") {
		t.Error("PDI artifact missing")
	}
	if len(dep.StarQueries) != 2 {
		t.Errorf("star queries = %d", len(dep.StarQueries))
	}
	// Native execution populates the DW.
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	loadedHolds(t, res, p.DB())
	for _, table := range []string{"fact_table_revenue", "fact_table_netprofit", "dim_part", "dim_supplier"} {
		if res.Loaded[table] == 0 {
			t.Errorf("table %s not loaded: %v", table, res.Loaded)
		}
	}
	// Integrated execution does less work than separate runs.
	sep, err := p.RunSeparately()
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsProcessed() >= sep.RowsProcessed() {
		t.Errorf("integrated work %d >= separate %d", res.RowsProcessed(), sep.RowsProcessed())
	}
	// Estimated quality factor available.
	cost, err := p.EstimatedETLCost()
	if err != nil || cost <= 0 {
		t.Errorf("cost = %v, %v", cost, err)
	}
}

func TestDuplicateRequirementRejected(t *testing.T) {
	p := newPlatform(t, 1)
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestInvalidRequirementRejectedAtomically(t *testing.T) {
	p := newPlatform(t, 1)
	bad := &xrq.Requirement{
		ID:         "IR_bad",
		Dimensions: []xrq.Dimension{{Concept: "Lineitem.l_returnflag"}},
		Measures:   []xrq.Measure{{ID: "m", Function: "Orders.o_totalprice"}},
	}
	if _, err := p.AddRequirement(bad); err == nil {
		t.Fatal("MD-invalid requirement accepted")
	}
	if len(p.Requirements()) != 0 {
		t.Error("failed add left state behind")
	}
	md, etl := p.Unified()
	if md != nil || etl != nil {
		t.Error("failed add produced designs")
	}
}

func TestRemoveRequirementRederives(t *testing.T) {
	p := newPlatform(t, 1)
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := p.AddRequirement(r); err != nil {
			t.Fatal(err)
		}
	}
	mdBefore, _ := p.Unified()
	// Before removal: netprofit and supplycost share the Partsupp
	// fact; revenue and quantity share the Lineitem fact.
	if _, ok := mdBefore.Fact("fact_table_netprofit"); !ok {
		t.Fatal("netprofit fact missing before removal")
	}
	rep, err := p.RemoveRequirement("IR_netprofit")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rederived {
		t.Error("removal did not re-derive")
	}
	mdAfter, _ := p.Unified()
	if _, ok := mdAfter.Fact("fact_table_netprofit"); ok {
		t.Error("removed fact still present")
	}
	// The Partsupp fact is now anchored by the supplycost requirement.
	if _, ok := mdAfter.Fact("fact_table_supplycost"); !ok {
		t.Errorf("supplycost fact missing after re-derivation: %v", mdAfter.Facts)
	}
	found := false
	for _, f := range mdAfter.Facts {
		if _, ok := f.Measure("netprofit"); ok {
			found = true
		}
	}
	if found {
		t.Error("netprofit measure survived removal")
	}
	if err := p.CheckSatisfiability(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RemoveRequirement("ghost"); err == nil {
		t.Error("removing unknown requirement succeeded")
	}
	// Remove everything; platform returns to empty state.
	for _, id := range []string{"IR_revenue", "IR_quantity_market", "IR_supplycost"} {
		if _, err := p.RemoveRequirement(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CheckSatisfiability(); err != nil {
		t.Errorf("empty platform unsatisfiable: %v", err)
	}
}

func TestChangeRequirement(t *testing.T) {
	p := newPlatform(t, 1)
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	// Change the slicer to France.
	changed := tpch.RevenueRequirement()
	changed.Slicers[0].Value = "FRANCE"
	rep, err := p.ChangeRequirement(changed)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rederived {
		t.Error("change did not re-derive")
	}
	_, etl := p.Unified()
	sel, ok := etl.Node("SELECTION_n_name")
	if !ok {
		t.Fatal("selection missing")
	}
	if !strings.Contains(sel.Param("predicate"), "FRANCE") {
		t.Errorf("predicate = %q", sel.Param("predicate"))
	}
	// Changing an unregistered requirement fails.
	ghost := tpch.NetProfitRequirement()
	if _, err := p.ChangeRequirement(ghost); err == nil {
		t.Error("changing unregistered requirement succeeded")
	}
	// An invalid change rolls back.
	bad := tpch.RevenueRequirement()
	bad.Measures[0].Function = "Part.p_name" // non-numeric
	if _, err := p.ChangeRequirement(bad); err == nil {
		t.Fatal("invalid change accepted")
	}
	if err := p.CheckSatisfiability(); err != nil {
		t.Errorf("rollback broke satisfiability: %v", err)
	}
}

// TestRepositoryHoldsArtifacts: the requirements are the one artifact
// the repository holds. After adds, a change and a removal a fresh store
// directory holds requirements.json only, and a platform restarted over
// it re-derives byte for byte the live platform's designs.
func TestRepositoryHoldsArtifacts(t *testing.T) {
	dir := t.TempDir()
	live := newPersistentPlatform(t, dir)
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := live.AddRequirement(r); err != nil {
			t.Fatal(err)
		}
	}
	changed := tpch.RevenueRequirement()
	changed.Slicers[0].Value = "FRANCE"
	if _, err := live.ChangeRequirement(changed); err != nil {
		t.Fatal(err)
	}
	if _, err := live.RemoveRequirement("IR_netprofit"); err != nil {
		t.Fatal(err)
	}
	storeHoldsRequirementsOnly(t, dir)
	sameDesigns(t, "restarted", newPersistentPlatform(t, dir), live)
}

func TestDeployAndRunRequireDesigns(t *testing.T) {
	p := newPlatform(t, 1)
	if _, err := p.Deploy("demo"); err == nil {
		t.Error("deploy with no designs succeeded")
	}
	if _, err := p.Run(); err == nil {
		t.Error("run with no designs succeeded")
	}
}

func TestElicitorDrivenLifecycle(t *testing.T) {
	p := newPlatform(t, 1)
	e := p.Elicitor()
	s, err := e.Suggest("Lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dimensions) == 0 || len(s.Measures) == 0 {
		t.Fatal("no suggestions")
	}
	r, err := e.NewRequirement("IR_elicited", "from suggestions").
		AddMeasure("qty", "Lineitem.l_quantity").
		AddDimension(s.Dimensions[0].Concept + "." + strings.SplitN(s.Dimensions[0].Attributes[0], ".", 2)[1]).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(r); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckSatisfiability(); err != nil {
		t.Fatal(err)
	}
}
