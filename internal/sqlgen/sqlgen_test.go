package sqlgen

import (
	"strings"
	"testing"

	"quarry/internal/interpreter"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
)

func revenueDesign(t *testing.T) (*xmd.Schema, *xlm.Design) {
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
	return pd.MD, pd.ETL
}

func TestTables(t *testing.T) {
	_, etl := revenueDesign(t)
	tables, err := Tables(etl)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TableDef{}
	for _, tb := range tables {
		byName[tb.Name] = tb
	}
	fact, ok := byName["fact_table_revenue"]
	if !ok {
		t.Fatalf("fact table missing: %v", byName)
	}
	if strings.Join(fact.PrimaryKey, ",") != "p_partkey,s_suppkey" {
		t.Errorf("fact PK = %v", fact.PrimaryKey)
	}
	if len(fact.ForeignKeys) != 2 {
		t.Errorf("fact FKs = %v", fact.ForeignKeys)
	}
	dim, ok := byName["dim_supplier"]
	if !ok {
		t.Fatal("dim_supplier missing")
	}
	if strings.Join(dim.PrimaryKey, ",") != "s_suppkey" {
		t.Errorf("dim PK = %v", dim.PrimaryKey)
	}
	// Dimensions sort before facts (FK targets exist first).
	if tables[len(tables)-1].Name != "fact_table_revenue" {
		t.Errorf("fact table not last: %v", tables[len(tables)-1].Name)
	}
}

func TestDDLShape(t *testing.T) {
	_, etl := revenueDesign(t)
	ddl, err := DDL("demo", etl)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3's artifact shape.
	for _, want := range []string{
		`CREATE DATABASE "demo";`,
		`CREATE TABLE "fact_table_revenue"`,
		`"revenue" double precision`,
		`PRIMARY KEY ("p_partkey", "s_suppkey")`,
		`FOREIGN KEY ("p_partkey") REFERENCES "dim_part" ("p_partkey")`,
		`FOREIGN KEY ("s_suppkey") REFERENCES "dim_supplier" ("s_suppkey")`,
		`CREATE TABLE "dim_supplier"`,
		`"n_name" VARCHAR(128)`,
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q\n%s", want, ddl)
		}
	}
	// Dimension tables are created before the fact table.
	if strings.Index(ddl, `CREATE TABLE "dim_part"`) > strings.Index(ddl, `CREATE TABLE "fact_table_revenue"`) {
		t.Error("fact table created before its dimensions")
	}
}

func TestStarQuery(t *testing.T) {
	md, etl := revenueDesign(t)
	q, err := StarQuery(md, etl, "fact_table_revenue")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`FROM "fact_table_revenue"`,
		`JOIN "dim_part" ON "fact_table_revenue"."p_partkey" = "dim_part"."p_partkey"`,
		`JOIN "dim_supplier"`,
		`SUM("fact_table_revenue"."revenue")`,
		"GROUP BY",
	} {
		if !strings.Contains(q, want) {
			t.Errorf("query missing %q\n%s", want, q)
		}
	}
	if _, err := StarQuery(md, etl, "ghost"); err == nil {
		t.Error("unknown fact table accepted")
	}
	if _, err := StarQuery(md, etl, "dim_part"); err == nil {
		t.Error("dimension table accepted as fact")
	}
}

func TestTablesErrors(t *testing.T) {
	d := xlm.NewDesign("empty")
	if _, err := Tables(d); err == nil {
		t.Error("empty design accepted")
	}
	// Two loaders of one table.
	d2 := xlm.NewDesign("conflict")
	d2.AddNode(&xlm.Node{Name: "A", Type: xlm.OpDatastore, Fields: []xlm.Field{{Name: "a", Type: "int"}}, Params: map[string]string{"table": "src_a"}})
	d2.AddNode(&xlm.Node{Name: "B", Type: xlm.OpDatastore, Fields: []xlm.Field{{Name: "b", Type: "string"}}, Params: map[string]string{"table": "src_b"}})
	d2.AddNode(&xlm.Node{Name: "L1", Type: xlm.OpLoader, Params: map[string]string{"table": "t"}})
	d2.AddNode(&xlm.Node{Name: "L2", Type: xlm.OpLoader, Params: map[string]string{"table": "t"}})
	d2.AddEdge("A", "L1")
	d2.AddEdge("B", "L2")
	if _, err := Tables(d2); err == nil {
		t.Error("two loaders of one table accepted")
	}
}

func TestPgTypes(t *testing.T) {
	for in, want := range map[string]string{
		"int": "BIGINT", "float": "double precision", "string": "VARCHAR(128)",
		"bool": "BOOLEAN", "mystery": "TEXT",
	} {
		if got := pgType(in); got != want {
			t.Errorf("pgType(%s) = %s", in, got)
		}
	}
	if quoteIdent(`we"ird`) != `"we""ird"` {
		t.Errorf("quoteIdent = %s", quoteIdent(`we"ird`))
	}
}
