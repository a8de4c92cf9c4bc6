package etlintegrator

import (
	"strings"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/interpreter"
	"quarry/internal/quality"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
)

func tpchFlows(t *testing.T) (flows []*xlm.Design, cost quality.ETLCostModel) {
	t.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(10)
	if err != nil {
		t.Fatal(err)
	}
	in, err := interpreter.New(o, m, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tpch.CanonicalRequirements() {
		pd, err := in.Interpret(r)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, pd.ETL)
	}
	return flows, quality.DefaultETLCost(c)
}

func TestIntegrateFirstFlow(t *testing.T) {
	flows, cost := tpchFlows(t)
	it := New(cost, true)
	u, rep, err := it.Integrate(nil, flows[0])
	if err != nil {
		t.Fatal(err)
	}
	if u.Name != "etl_unified" {
		t.Errorf("name = %q", u.Name)
	}
	if rep.Added != len(flows[0].Nodes()) || rep.Reused != 0 {
		t.Errorf("report = %+v", rep)
	}
	if u.Metadata["requirements"] != "IR_revenue" {
		t.Errorf("requirements metadata = %q", u.Metadata["requirements"])
	}
}

// TestFigure3ETLIntegration reproduces the ETL side of Figure 3:
// integrating the net-profit flow into the revenue flow reuses the
// shared extraction and dimension-load pipelines.
func TestFigure3ETLIntegration(t *testing.T) {
	flows, cost := tpchFlows(t)
	it := New(cost, true)
	u, _, err := it.Integrate(nil, flows[0])
	if err != nil {
		t.Fatal(err)
	}
	u, rep, err := it.Integrate(u, flows[1])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused == 0 {
		t.Fatal("no operations reused")
	}
	// Shared datastores appear once.
	for _, name := range []string{"DATASTORE_Partsupp", "DATASTORE_Supplier", "DATASTORE_Nation", "DATASTORE_Part"} {
		count := 0
		for _, n := range u.Nodes() {
			if n.Name == name || strings.HasPrefix(n.Name, name+"__") {
				count++
			}
		}
		if count != 1 {
			t.Errorf("%s appears %d times", name, count)
		}
	}
	// Shared dimension loads appear once.
	loaders := 0
	for _, n := range u.Nodes() {
		if n.Type == xlm.OpLoader && n.Param("table") == "dim_part" {
			loaders++
		}
	}
	if loaders != 1 {
		t.Errorf("dim_part loaders = %d, want 1 (reused)", loaders)
	}
	// Both fact loaders exist.
	hasRevenue, hasNetprofit := false, false
	for _, n := range u.Nodes() {
		if n.Type == xlm.OpLoader {
			switch n.Param("table") {
			case "fact_table_revenue":
				hasRevenue = true
			case "fact_table_netprofit":
				hasNetprofit = true
			}
		}
	}
	if !hasRevenue || !hasNetprofit {
		t.Error("fact loaders missing")
	}
	// The integrated flow is estimated cheaper than separate runs.
	if rep.CostAfter >= rep.CostSeparate {
		t.Errorf("integrated cost %v >= separate %v", rep.CostAfter, rep.CostSeparate)
	}
	// Metadata accumulates requirements.
	if u.Metadata["requirements"] != "IR_netprofit,IR_revenue" {
		t.Errorf("requirements = %q", u.Metadata["requirements"])
	}
	if rep.ReuseRatio() <= 0.2 {
		t.Errorf("reuse ratio = %v, want substantial reuse", rep.ReuseRatio())
	}
}

func TestIncrementalIntegrationAllCanonical(t *testing.T) {
	flows, cost := tpchFlows(t)
	it := New(cost, true)
	var u *xlm.Design
	var err error
	totalReused := 0
	for _, f := range flows {
		var rep *Report
		u, rep, err = it.Integrate(u, f)
		if err != nil {
			t.Fatal(err)
		}
		totalReused += rep.Reused
		if err := u.Validate(); err != nil {
			t.Fatalf("unified invalid after %s: %v", f.Name, err)
		}
	}
	if totalReused == 0 {
		t.Error("nothing reused across four requirements")
	}
}

func TestIdempotentIntegration(t *testing.T) {
	flows, cost := tpchFlows(t)
	it := New(cost, true)
	u1, _, err := it.Integrate(nil, flows[0])
	if err != nil {
		t.Fatal(err)
	}
	u2, rep, err := it.Integrate(u1, flows[0])
	if err != nil {
		t.Fatal(err)
	}
	// Re-integrating the same flow reuses every operation.
	if rep.Added != 0 {
		t.Errorf("re-integration added %d nodes", rep.Added)
	}
	if len(u2.Nodes()) != len(u1.Nodes()) {
		t.Errorf("design grew: %d → %d", len(u1.Nodes()), len(u2.Nodes()))
	}
}

// mkSel builds a small hand-written flow src → ops… → load, with the
// given middle operations, standing in for an externally designed
// partial flow (the paper allows plugging in external design tools).
func mkFlow(t *testing.T, name string, mid ...*xlm.Node) *xlm.Design {
	t.Helper()
	d := xlm.NewDesign(name)
	if err := d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "a", Type: "int"}, {Name: "b", Type: "float"}, {Name: "g", Type: "string"}},
		Params: map[string]string{"store": "s", "table": "t"}}); err != nil {
		t.Fatal(err)
	}
	prev := "DS"
	for _, n := range mid {
		if err := d.AddNode(n); err != nil {
			t.Fatal(err)
		}
		if err := d.AddEdge(prev, n.Name); err != nil {
			t.Fatal(err)
		}
		prev = n.Name
	}
	if err := d.AddNode(&xlm.Node{Name: "LOAD_" + name, Type: xlm.OpLoader, Params: map[string]string{"table": "out_" + name}}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(prev, "LOAD_"+name); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestReorderingHoistsSelection: the unified flow computes
// Function(f) before Selection(g='x'); the partial flow wants the
// selection directly after the source. With reordering the integrator
// hoists the unified selection and reuses it; without, it duplicates.
func TestReorderingHoistsSelection(t *testing.T) {
	unifiedFlow := func() *xlm.Design {
		return mkFlow(t, "u",
			&xlm.Node{Name: "F", Type: xlm.OpFunction, Params: map[string]string{"name": "f", "expr": "b * 2"}},
			&xlm.Node{Name: "SEL", Type: xlm.OpSelection, Params: map[string]string{"predicate": "g = 'x'"}},
		)
	}
	partialFlow := func() *xlm.Design {
		return mkFlow(t, "p",
			&xlm.Node{Name: "SEL_P", Type: xlm.OpSelection, Params: map[string]string{"predicate": "g = 'x'"}},
			&xlm.Node{Name: "AGG", Type: xlm.OpAggregation, Params: map[string]string{"group": "g", "aggregates": "s:SUM:a"}},
		)
	}

	// With reordering.
	it := New(nil, true)
	u, _, err := it.Integrate(nil, unifiedFlow())
	if err != nil {
		t.Fatal(err)
	}
	u, rep, err := it.Integrate(u, partialFlow())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hoisted != 1 {
		t.Fatalf("hoisted = %d, want 1 (report %+v)", rep.Hoisted, rep)
	}
	// The hoisted selection now sits directly after the source and
	// feeds both the function chain and the new aggregation.
	sel, ok := u.Node("SEL")
	if !ok {
		t.Fatal("SEL missing")
	}
	ins := u.Inputs(sel.Name)
	if len(ins) != 1 || ins[0].Name != "DS" {
		t.Errorf("SEL inputs = %v", names(ins))
	}
	if got := len(u.Outputs("SEL")); got != 2 {
		t.Errorf("SEL consumers = %d, want 2 (F chain + AGG)", got)
	}
	if err := u.Validate(); err != nil {
		t.Fatalf("hoisted design invalid: %v", err)
	}

	// Without reordering: the selection is duplicated.
	it2 := New(nil, false)
	u2, _, err := it2.Integrate(nil, unifiedFlow())
	if err != nil {
		t.Fatal(err)
	}
	u2, rep2, err := it2.Integrate(u2, partialFlow())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Hoisted != 0 {
		t.Errorf("reordering disabled but hoisted = %d", rep2.Hoisted)
	}
	selCount := 0
	for _, n := range u2.Nodes() {
		if n.Type == xlm.OpSelection {
			selCount++
		}
	}
	if selCount != 2 {
		t.Errorf("selections = %d, want 2 (duplicated)", selCount)
	}
	if rep2.Reused >= rep.Reused {
		t.Errorf("reordering should increase reuse: %d vs %d", rep.Reused, rep2.Reused)
	}
}

// TestHoistPreservesSemantics executes the flows before and after a
// hoisting integration and compares loaded results.
func TestHoistPreservesSemantics(t *testing.T) {
	db := storage.NewMemDB()
	tb, _ := db.CreateTable("t", []storage.Column{
		{Name: "a", Type: "int"}, {Name: "b", Type: "float"}, {Name: "g", Type: "string"},
	})
	rows := []struct {
		a int64
		b float64
		g string
	}{
		{1, 2.5, "x"}, {2, 1.0, "y"}, {3, 4.0, "x"}, {4, 8.0, "x"}, {5, 0.5, "y"},
	}
	for _, r := range rows {
		tb.Insert(storage.Row{expr.Int(r.a), expr.Float(r.b), expr.Str(r.g)})
	}

	unifiedFlow := mkFlow(t, "u",
		&xlm.Node{Name: "F", Type: xlm.OpFunction, Params: map[string]string{"name": "f", "expr": "b * 2"}},
		&xlm.Node{Name: "SEL", Type: xlm.OpSelection, Params: map[string]string{"predicate": "g = 'x'"}},
	)
	// Reference result of the unified flow alone.
	ref, err := engine.Run(unifiedFlow.Clone(), db)
	if err != nil {
		t.Fatal(err)
	}
	refRows := tableRows(t, db, "out_u")

	partialFlow := mkFlow(t, "p",
		&xlm.Node{Name: "SEL_P", Type: xlm.OpSelection, Params: map[string]string{"predicate": "g = 'x'"}},
		&xlm.Node{Name: "AGG", Type: xlm.OpAggregation, Params: map[string]string{"group": "g", "aggregates": "s:SUM:a"}},
	)
	it := New(nil, true)
	u, _, err := it.Integrate(nil, unifiedFlow)
	if err != nil {
		t.Fatal(err)
	}
	u, rep, err := it.Integrate(u, partialFlow)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hoisted != 1 {
		t.Fatalf("expected hoist, report %+v", rep)
	}
	if _, err := engine.Run(u, db); err != nil {
		t.Fatal(err)
	}
	// out_u unchanged by the reordering.
	gotRows := tableRows(t, db, "out_u")
	if len(gotRows) != len(refRows) {
		t.Fatalf("out_u rows = %d, want %d", len(gotRows), len(refRows))
	}
	// Both flows loaded: out_p has SUM(a) over g='x' → 1+3+4 = 8.
	pRows := tableRows(t, db, "out_p")
	if len(pRows) != 1 || pRows[0][1].AsInt() != 8 {
		t.Errorf("out_p = %v", pRows)
	}
	_ = ref
}

func TestHoistRefusedAcrossFork(t *testing.T) {
	// The function node has a second consumer; hoisting the selection
	// above it would change that consumer's data — must not happen.
	d := mkFlow(t, "u",
		&xlm.Node{Name: "F", Type: xlm.OpFunction, Params: map[string]string{"name": "f", "expr": "b * 2"}},
		&xlm.Node{Name: "SEL", Type: xlm.OpSelection, Params: map[string]string{"predicate": "g = 'x'"}},
	)
	// Second consumer of F.
	if err := d.AddNode(&xlm.Node{Name: "LOAD2", Type: xlm.OpLoader, Params: map[string]string{"table": "other"}}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge("F", "LOAD2"); err != nil {
		t.Fatal(err)
	}
	partial := mkFlow(t, "p",
		&xlm.Node{Name: "SEL_P", Type: xlm.OpSelection, Params: map[string]string{"predicate": "g = 'x'"}},
	)
	it := New(nil, true)
	u, _, err := it.Integrate(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := it.Integrate(u, partial)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hoisted != 0 {
		t.Errorf("hoisted across a fork: %+v", rep)
	}
}

func TestIntegrateRejectsInvalidInputs(t *testing.T) {
	it := New(nil, true)
	if _, _, err := it.Integrate(nil, nil); err == nil {
		t.Error("nil partial accepted")
	}
	bad := xlm.NewDesign("bad") // empty
	if _, _, err := it.Integrate(nil, bad); err == nil {
		t.Error("invalid partial accepted")
	}
}

func TestNameCollisionGetsSuffix(t *testing.T) {
	// Same node name, different signature → must be copied in under a
	// fresh name.
	a := mkFlow(t, "a", &xlm.Node{Name: "SEL", Type: xlm.OpSelection, Params: map[string]string{"predicate": "g = 'x'"}})
	b := mkFlow(t, "b", &xlm.Node{Name: "SEL", Type: xlm.OpSelection, Params: map[string]string{"predicate": "g = 'y'"}})
	it := New(nil, false)
	u, _, err := it.Integrate(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	u, _, err = it.Integrate(u, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := u.Node("SEL__2"); !ok {
		t.Errorf("expected SEL__2; nodes = %v", names(u.Nodes()))
	}
}

func names(ns []*xlm.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Name
	}
	return out
}

func tableRows(t *testing.T, db *storage.DB, table string) []storage.Row {
	t.Helper()
	tb, ok := db.Table(table)
	if !ok {
		t.Fatalf("table %s missing", table)
	}
	return tb.Rows()
}
