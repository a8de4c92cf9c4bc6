package core

import (
	"strings"
	"testing"

	"quarry/internal/olap"
	"quarry/internal/tpch"
)

func TestAccessors(t *testing.T) {
	p := newPlatform(t, 1)
	if p.Elicitor() == nil || p.DB() == nil {
		t.Fatal("nil component accessor")
	}
	// Empty-platform behaviour.
	if cost, err := p.EstimatedETLCost(); err != nil || cost != 0 {
		t.Errorf("empty cost = %v, %v", cost, err)
	}
	if _, ok := p.Partial("ghost"); ok {
		t.Error("phantom partial")
	}
	if _, err := p.ExportFlow("sql"); err == nil {
		t.Error("export with no design succeeded")
	}
	if _, err := p.RunSeparately(); err != nil {
		t.Errorf("empty RunSeparately should no-op: %v", err)
	}
}

func TestRunWithoutDB(t *testing.T) {
	o, _ := tpch.Ontology()
	m, _ := tpch.Mapping()
	c, _ := tpch.Catalog(1)
	p, err := New(Config{Ontology: o, Mapping: m, Catalog: c}) // no DB
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err == nil {
		t.Error("Run without DB succeeded")
	}
	if _, err := p.RunSeparately(); err == nil {
		t.Error("RunSeparately without DB succeeded")
	}
	// Deploy works without a DB (artifacts only).
	if _, err := p.Deploy("demo"); err != nil {
		t.Errorf("Deploy without DB: %v", err)
	}
}

func TestExportFlowNotations(t *testing.T) {
	p := newPlatform(t, 1)
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	sql, err := p.ExportFlow("sql")
	if err != nil || !strings.Contains(sql, "INSERT INTO") {
		t.Errorf("sql export: %v", err)
	}
	pig, err := p.ExportFlow("pig")
	if err != nil || !strings.Contains(pig, "STORE") {
		t.Errorf("pig export: %v", err)
	}
	dot, err := p.ExportFlow("dot")
	if err != nil || !strings.Contains(dot, "digraph") {
		t.Errorf("dot export: %v", err)
	}
	if _, err := p.ExportFlow("cobol"); err == nil {
		t.Error("unknown notation exported")
	}
}

func TestDeploymentIncludesFlowExports(t *testing.T) {
	p := newPlatform(t, 1)
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	dep, err := p.Deploy("demo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dep.FlowSQL, "INSERT INTO") {
		t.Error("FlowSQL missing")
	}
	if !strings.Contains(dep.PigLatin, "LOAD") {
		t.Error("PigLatin missing")
	}
}

func TestOLAPThroughPlatform(t *testing.T) {
	p := newPlatform(t, 2)
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	run, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	loadedHolds(t, run, p.DB())
	oe, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	res, err := oe.Query(olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"r_name"},
		Measures: []olap.MeasureSpec{{Out: "t", Func: "SUM", Col: "revenue"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no answer rows")
	}
}
