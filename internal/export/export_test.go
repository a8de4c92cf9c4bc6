package export

import (
	"errors"
	"strings"
	"testing"

	"quarry/internal/interpreter"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
)

func revenueETL(t *testing.T) *xlm.Design {
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
	in, err := interpreter.New(o, m, c)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := in.Interpret(tpch.RevenueRequirement())
	if err != nil {
		t.Fatal(err)
	}
	return pd.ETL
}

func TestNotations(t *testing.T) {
	d := revenueETL(t)
	for _, name := range []string{"dot", "pig", "sql"} {
		if _, err := Export(name, d); err != nil {
			t.Errorf("notation %q: %v", name, err)
		}
	}
	if _, err := Export("ghost", d); !errors.Is(err, ErrUnknownNotation) {
		t.Errorf("Export with unknown notation: %v, want ErrUnknownNotation", err)
	}
}

func TestSQLExport(t *testing.T) {
	sql, err := Export("sql", revenueETL(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`INSERT INTO "fact_table_revenue"`,
		`INSERT INTO "dim_part"`,
		`INSERT INTO "dim_supplier"`,
		`FROM "lineitem"`,
		`WHERE n_name = 'SPAIN'`,
		`AVG("revenue") AS "revenue"`,
		"GROUP BY",
		"JOIN (",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL export missing %q", want)
		}
	}
	// One statement per loader, each terminated.
	if got := strings.Count(sql, "INSERT INTO"); got != 3 {
		t.Errorf("INSERT count = %d, want 3", got)
	}
	if got := strings.Count(sql, ";"); got != 3 {
		t.Errorf("statement terminator count = %d, want 3", got)
	}
}

func TestSQLExportCoversAllOperators(t *testing.T) {
	// A design exercising union, sort and surrogate key.
	d := xlm.NewDesign("full")
	add := func(n *xlm.Node) {
		if err := d.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	add(&xlm.Node{Name: "A", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "k", Type: "int"}, {Name: "v", Type: "string"}},
		Params: map[string]string{"table": "a"}})
	add(&xlm.Node{Name: "B", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "k", Type: "int"}, {Name: "v", Type: "string"}},
		Params: map[string]string{"table": "b"}})
	add(&xlm.Node{Name: "U", Type: xlm.OpUnion})
	add(&xlm.Node{Name: "S", Type: xlm.OpSort, Params: map[string]string{"by": "k"}})
	add(&xlm.Node{Name: "SK", Type: xlm.OpSurrogateKey, Params: map[string]string{"key": "sk", "on": "v"}})
	add(&xlm.Node{Name: "P", Type: xlm.OpProjection, Params: map[string]string{"columns": "key=k, sk"}})
	add(&xlm.Node{Name: "L", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("A", "U")
	d.AddEdge("B", "U")
	d.AddEdge("U", "S")
	d.AddEdge("S", "SK")
	d.AddEdge("SK", "P")
	d.AddEdge("P", "L")
	sql, err := Export("sql", d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"UNION ALL", "ORDER BY", "DENSE_RANK() OVER", `"k" AS "key"`} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL export missing %q:\n%s", want, sql)
		}
	}
}

func TestPigExport(t *testing.T) {
	pig, err := Export("pig", revenueETL(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"DATASTORE_Lineitem = LOAD 'lineitem' USING PigStorage(',') AS (",
		"l_extendedprice:double",
		"FILTER",
		"n_name == 'SPAIN'",
		"JOIN",
		"GROUP",
		"AVG(",
		"STORE",
		"INTO 'fact_table_revenue'",
	} {
		if !strings.Contains(pig, want) {
			t.Errorf("Pig export missing %q", want)
		}
	}
	// One STORE per loader.
	if got := strings.Count(pig, "STORE "); got != 3 {
		t.Errorf("STORE count = %d, want 3", got)
	}
}

func TestPigExpr(t *testing.T) {
	got, err := pigExpr("a = 1 AND NOT (b <> 2) OR c = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"==", "and", "or", "not", "!="} {
		if !strings.Contains(got, want) {
			t.Errorf("pigExpr = %q missing %q", got, want)
		}
	}
	if strings.Contains(got, " = ") {
		t.Errorf("pigExpr left SQL equality: %q", got)
	}
	if _, err := pigExpr("1 +"); err == nil {
		t.Error("bad expression exported")
	}
}

func TestExportRejectsInvalidDesign(t *testing.T) {
	d := xlm.NewDesign("empty")
	if _, err := Export("sql", d); err == nil {
		t.Error("invalid design exported")
	}
}

func TestPigAliasSanitisation(t *testing.T) {
	if got := pigAlias("JOIN a-b.c"); got != "JOIN_a_b_c" {
		t.Errorf("pigAlias = %q", got)
	}
}

func TestDotExport(t *testing.T) {
	dot, err := Export("dot", revenueETL(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"digraph", "rankdir=LR",
		`"DATASTORE_Lineitem"`, "shape=cylinder",
		`"SELECTION_n_name"`, "shape=trapezium",
		`"DATASTORE_Lineitem" -> "EXTRACTION_Lineitem";`,
		"shape=folder",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot export missing %q", want)
		}
	}
	// Braces balance and every edge's endpoints are declared.
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Error("unbalanced braces")
	}
}

func TestDotEscaping(t *testing.T) {
	d := xlm.NewDesign("esc")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "g", Type: "string"}},
		Params: map[string]string{"table": "t"}})
	d.AddNode(&xlm.Node{Name: "SEL", Type: xlm.OpSelection,
		Params: map[string]string{"predicate": `g = 'quo"te'`}})
	d.AddNode(&xlm.Node{Name: "L", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("DS", "SEL")
	d.AddEdge("SEL", "L")
	dot, err := Export("dot", d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, `quo\"te`) {
		t.Errorf("quote not escaped:\n%s", dot)
	}
}
