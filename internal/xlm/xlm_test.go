package xlm

import (
	"strings"
	"testing"
)

// revenueFlow builds a realistic ETL flow shaped like the paper's
// Figure 3: extract lineitem/supplier/nation, join, slice to Spain,
// derive revenue, aggregate per supplier, load the fact table.
func revenueFlow(t *testing.T) *Design {
	t.Helper()
	d := NewDesign("etl_revenue")
	d.Metadata["requirement"] = "IR1"
	mustNode := func(n *Node) {
		if err := d.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge := func(from, to string) {
		if err := d.AddEdge(from, to); err != nil {
			t.Fatal(err)
		}
	}
	mustNode(&Node{Name: "DATASTORE_lineitem", Type: OpDatastore, Optype: "TableInput",
		Fields: []Field{
			{Name: "l_suppkey", Type: "int"},
			{Name: "l_extendedprice", Type: "float"},
			{Name: "l_discount", Type: "float"},
		},
		Params: map[string]string{"store": "tpch", "table": "lineitem"},
	})
	mustNode(&Node{Name: "DATASTORE_supplier", Type: OpDatastore, Optype: "TableInput",
		Fields: []Field{
			{Name: "s_suppkey", Type: "int"},
			{Name: "s_name", Type: "string"},
			{Name: "s_nationkey", Type: "int"},
		},
		Params: map[string]string{"store": "tpch", "table": "supplier"},
	})
	mustNode(&Node{Name: "DATASTORE_nation", Type: OpDatastore, Optype: "TableInput",
		Fields: []Field{
			{Name: "n_nationkey", Type: "int"},
			{Name: "n_name", Type: "string"},
		},
		Params: map[string]string{"store": "tpch", "table": "nation"},
	})
	mustNode(&Node{Name: "EXTRACTION_lineitem", Type: OpExtraction})
	mustNode(&Node{Name: "EXTRACTION_supplier", Type: OpExtraction})
	mustNode(&Node{Name: "EXTRACTION_nation", Type: OpExtraction})
	mustNode(&Node{Name: "JOIN_l_s", Type: OpJoin, Params: map[string]string{"on": "l_suppkey=s_suppkey"}})
	mustNode(&Node{Name: "JOIN_ls_n", Type: OpJoin, Params: map[string]string{"on": "s_nationkey=n_nationkey"}})
	mustNode(&Node{Name: "SELECTION_spain", Type: OpSelection, Params: map[string]string{"predicate": "n_name = 'Spain'"}})
	mustNode(&Node{Name: "FUNCTION_revenue", Type: OpFunction, Params: map[string]string{
		"name": "revenue", "expr": "l_extendedprice * (1 - l_discount)",
	}})
	mustNode(&Node{Name: "AGG_supplier", Type: OpAggregation, Params: map[string]string{
		"group": "s_name", "aggregates": "revenue_sum:SUM:revenue",
	}})
	mustNode(&Node{Name: "LOADER_fact", Type: OpLoader, Optype: "TableOutput", Params: map[string]string{"table": "fact_revenue"}})

	mustEdge("DATASTORE_lineitem", "EXTRACTION_lineitem")
	mustEdge("DATASTORE_supplier", "EXTRACTION_supplier")
	mustEdge("DATASTORE_nation", "EXTRACTION_nation")
	mustEdge("EXTRACTION_lineitem", "JOIN_l_s")
	mustEdge("EXTRACTION_supplier", "JOIN_l_s")
	mustEdge("JOIN_l_s", "JOIN_ls_n")
	mustEdge("EXTRACTION_nation", "JOIN_ls_n")
	mustEdge("JOIN_ls_n", "SELECTION_spain")
	mustEdge("SELECTION_spain", "FUNCTION_revenue")
	mustEdge("FUNCTION_revenue", "AGG_supplier")
	mustEdge("AGG_supplier", "LOADER_fact")
	return d
}

func TestValidateRevenueFlow(t *testing.T) {
	d := revenueFlow(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	agg, _ := d.Node("AGG_supplier")
	names := agg.FieldNames()
	if strings.Join(names, ",") != "s_name,revenue_sum" {
		t.Errorf("aggregation schema = %v", names)
	}
	if f, _ := agg.Field("revenue_sum"); f.Type != "float" {
		t.Errorf("revenue_sum type = %s", f.Type)
	}
	fn, _ := d.Node("FUNCTION_revenue")
	if f, ok := fn.Field("revenue"); !ok || f.Type != "float" {
		t.Errorf("revenue field = %v, %v", f, ok)
	}
	join, _ := d.Node("JOIN_ls_n")
	if len(join.Fields) != 8 {
		t.Errorf("join schema width = %d, want 8", len(join.Fields))
	}
}

func TestTopoSortAndCycle(t *testing.T) {
	d := revenueFlow(t)
	order, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name] = i
	}
	for _, e := range d.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %s→%s violates topological order", e.From, e.To)
		}
	}
	// Force a cycle via the internal edge list.
	d.edges = append(d.edges, Edge{From: "LOADER_fact", To: "DATASTORE_lineitem"})
	if _, err := d.TopoSort(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestSourcesAndSinks(t *testing.T) {
	d := revenueFlow(t)
	if got := len(d.Sources()); got != 3 {
		t.Errorf("sources = %d", got)
	}
	sinks := d.Sinks()
	if len(sinks) != 1 || sinks[0].Name != "LOADER_fact" {
		t.Errorf("sinks = %v", sinks)
	}
}

func TestAddErrors(t *testing.T) {
	d := NewDesign("x")
	if err := d.AddNode(&Node{Name: "", Type: OpSelection}); err == nil {
		t.Error("unnamed node accepted")
	}
	if err := d.AddNode(&Node{Name: "a", Type: "Bogus"}); err == nil {
		t.Error("unknown type accepted")
	}
	d.AddNode(&Node{Name: "a", Type: OpSelection})
	if err := d.AddNode(&Node{Name: "a", Type: OpSelection}); err == nil {
		t.Error("duplicate node accepted")
	}
	d.AddNode(&Node{Name: "b", Type: OpSelection})
	if err := d.AddEdge("a", "ghost"); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := d.AddEdge("ghost", "a"); err == nil {
		t.Error("edge from unknown node accepted")
	}
	if err := d.AddEdge("a", "a"); err == nil {
		t.Error("self edge accepted")
	}
	if err := d.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge("a", "b"); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestSchemaInferenceErrors(t *testing.T) {
	type tweak func(d *Design)
	base := func(t *testing.T, f tweak) error {
		d := revenueFlow(t)
		f(d)
		return d.Validate()
	}
	cases := map[string]tweak{
		"selection bad predicate": func(d *Design) {
			n, _ := d.Node("SELECTION_spain")
			n.Params["predicate"] = "n_name +"
		},
		"selection non-bool": func(d *Design) {
			n, _ := d.Node("SELECTION_spain")
			n.Params["predicate"] = "l_discount * 2"
		},
		"selection missing column": func(d *Design) {
			n, _ := d.Node("SELECTION_spain")
			n.Params["predicate"] = "ghost = 1"
		},
		"join missing left column": func(d *Design) {
			n, _ := d.Node("JOIN_l_s")
			n.Params["on"] = "ghost=s_suppkey"
		},
		"join missing right column": func(d *Design) {
			n, _ := d.Node("JOIN_l_s")
			n.Params["on"] = "l_suppkey=ghost"
		},
		"join malformed": func(d *Design) {
			n, _ := d.Node("JOIN_l_s")
			n.Params["on"] = "l_suppkey"
		},
		"join type clash": func(d *Design) {
			n, _ := d.Node("JOIN_l_s")
			n.Params["on"] = "l_suppkey=s_name"
		},
		"function bad expr": func(d *Design) {
			n, _ := d.Node("FUNCTION_revenue")
			n.Params["expr"] = "1 +"
		},
		"function redefines": func(d *Design) {
			n, _ := d.Node("FUNCTION_revenue")
			n.Params["name"] = "l_discount"
		},
		"function no name": func(d *Design) {
			n, _ := d.Node("FUNCTION_revenue")
			delete(n.Params, "name")
		},
		"agg missing group col": func(d *Design) {
			n, _ := d.Node("AGG_supplier")
			n.Params["group"] = "ghost"
		},
		"agg missing input col": func(d *Design) {
			n, _ := d.Node("AGG_supplier")
			n.Params["aggregates"] = "x:SUM:ghost"
		},
		"agg non-numeric": func(d *Design) {
			n, _ := d.Node("AGG_supplier")
			n.Params["aggregates"] = "x:SUM:n_name"
		},
		"agg bad func": func(d *Design) {
			n, _ := d.Node("AGG_supplier")
			n.Params["aggregates"] = "x:MEDIAN:revenue"
		},
		"agg malformed": func(d *Design) {
			n, _ := d.Node("AGG_supplier")
			n.Params["aggregates"] = "x:SUM"
		},
		"agg collision": func(d *Design) {
			n, _ := d.Node("AGG_supplier")
			n.Params["aggregates"] = "s_name:SUM:revenue"
		},
		"loader no table": func(d *Design) {
			n, _ := d.Node("LOADER_fact")
			delete(n.Params, "table")
		},
	}
	for name, f := range cases {
		if err := base(t, f); err == nil {
			t.Errorf("%s: Validate accepted broken design", name)
		}
	}
}

func TestValidateStructuralErrors(t *testing.T) {
	// Empty design.
	if err := NewDesign("x").Validate(); err == nil {
		t.Error("empty design accepted")
	}
	// Unnamed design.
	d := revenueFlow(t)
	d.Name = ""
	if err := d.Validate(); err == nil {
		t.Error("unnamed design accepted")
	}
	// Source that is not a datastore (disconnected selection).
	d = revenueFlow(t)
	d.AddNode(&Node{Name: "orphan", Type: OpSelection, Params: map[string]string{"predicate": "TRUE"}})
	if err := d.Validate(); err == nil {
		t.Error("non-datastore source accepted")
	}
	// Sink that is not a loader: a selection after the loader's input.
	d = revenueFlow(t)
	d.AddNode(&Node{Name: "dangling", Type: OpSelection, Params: map[string]string{"predicate": "TRUE"}})
	d.AddEdge("AGG_supplier", "dangling")
	if err := d.Validate(); err == nil {
		t.Error("non-loader sink accepted")
	}
	// Datastore without schema.
	d = revenueFlow(t)
	ds, _ := d.Node("DATASTORE_nation")
	ds.Fields = nil
	if err := d.Validate(); err == nil {
		t.Error("schema-less datastore accepted")
	}
	// Join with ambiguous output columns.
	d2 := NewDesign("amb")
	d2.AddNode(&Node{Name: "a", Type: OpDatastore, Fields: []Field{{Name: "k", Type: "int"}, {Name: "v", Type: "int"}}})
	d2.AddNode(&Node{Name: "b", Type: OpDatastore, Fields: []Field{{Name: "k", Type: "int"}, {Name: "v", Type: "int"}}})
	d2.AddNode(&Node{Name: "j", Type: OpJoin, Params: map[string]string{"on": "k=k"}})
	d2.AddNode(&Node{Name: "l", Type: OpLoader, Params: map[string]string{"table": "t"}})
	d2.AddEdge("a", "j")
	d2.AddEdge("b", "j")
	d2.AddEdge("j", "l")
	if err := d2.Validate(); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous join columns: %v", err)
	}
}

// TestValidateOneLoaderPerTable: a loader replaces its table, so a
// second loader of one table is refused naming both loaders, and a
// loader whose mode is anything but replace is refused naming it.
func TestValidateOneLoaderPerTable(t *testing.T) {
	d := revenueFlow(t)
	d.AddNode(&Node{Name: "LOADER_again", Type: OpLoader, Params: map[string]string{"table": "fact_revenue"}})
	d.AddEdge("AGG_supplier", "LOADER_again")
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), `loaders "LOADER_fact" and "LOADER_again" both load table "fact_revenue"`) {
		t.Errorf("second loader of one table: %v", err)
	}
	loader, _ := d.Node("LOADER_again")
	loader.Params["table"] = "fact_revenue_copy"
	if err := d.Validate(); err != nil {
		t.Errorf("loaders of two tables refused: %v", err)
	}
	for mode, ok := range map[string]bool{"replace": true, "append": false, "bogus": false} {
		loader.Params["mode"] = mode
		err := d.Validate()
		if ok && err != nil {
			t.Errorf("mode %q refused: %v", mode, err)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), `loader "LOADER_again" has mode "`+mode+`"`)) {
			t.Errorf("mode %q: %v, want a refusal naming the loader", mode, err)
		}
	}
}

func TestProjectionAndSortAndSK(t *testing.T) {
	d := NewDesign("proj")
	d.AddNode(&Node{Name: "src", Type: OpDatastore, Fields: []Field{
		{Name: "a", Type: "int"}, {Name: "b", Type: "string"}, {Name: "c", Type: "float"},
	}, Params: map[string]string{"table": "t"}})
	d.AddNode(&Node{Name: "proj", Type: OpProjection, Params: map[string]string{"columns": "x=a, b"}})
	d.AddNode(&Node{Name: "sort", Type: OpSort, Params: map[string]string{"by": "b"}})
	d.AddNode(&Node{Name: "sk", Type: OpSurrogateKey, Params: map[string]string{"key": "row_sk", "on": "b"}})
	d.AddNode(&Node{Name: "load", Type: OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("src", "proj")
	d.AddEdge("proj", "sort")
	d.AddEdge("sort", "sk")
	d.AddEdge("sk", "load")
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	sk, _ := d.Node("sk")
	if strings.Join(sk.FieldNames(), ",") != "x,b,row_sk" {
		t.Errorf("sk schema = %v", sk.FieldNames())
	}
	if f, _ := sk.Field("row_sk"); f.Type != "int" {
		t.Errorf("surrogate key type = %s", f.Type)
	}

	// Error branches.
	proj, _ := d.Node("proj")
	proj.Params["columns"] = "x=ghost"
	if err := d.Validate(); err == nil {
		t.Error("projection of missing column accepted")
	}
	proj.Params["columns"] = "x=a, x=b"
	if err := d.Validate(); err == nil {
		t.Error("duplicate projection output accepted")
	}
	proj.Params["columns"] = "x=a, b"
	srt, _ := d.Node("sort")
	srt.Params["by"] = "ghost"
	if err := d.Validate(); err == nil {
		t.Error("sort by missing column accepted")
	}
	srt.Params["by"] = "b"
	skn, _ := d.Node("sk")
	skn.Params["on"] = "ghost"
	if err := d.Validate(); err == nil {
		t.Error("surrogate key on missing column accepted")
	}
	skn.Params["on"] = "b"
	skn.Params["key"] = "b"
	if err := d.Validate(); err == nil {
		t.Error("surrogate key redefining column accepted")
	}
}

func TestUnionSchema(t *testing.T) {
	mk := func(bFields []Field) *Design {
		d := NewDesign("u")
		d.AddNode(&Node{Name: "a", Type: OpDatastore, Fields: []Field{{Name: "k", Type: "int"}}})
		d.AddNode(&Node{Name: "b", Type: OpDatastore, Fields: bFields})
		d.AddNode(&Node{Name: "u", Type: OpUnion})
		d.AddNode(&Node{Name: "l", Type: OpLoader, Params: map[string]string{"table": "t"}})
		d.AddEdge("a", "u")
		d.AddEdge("b", "u")
		d.AddEdge("u", "l")
		return d
	}
	if err := mk([]Field{{Name: "k", Type: "int"}}).Validate(); err != nil {
		t.Errorf("compatible union rejected: %v", err)
	}
	if err := mk([]Field{{Name: "k", Type: "string"}}).Validate(); err == nil {
		t.Error("type-mismatched union accepted")
	}
	if err := mk([]Field{{Name: "k", Type: "int"}, {Name: "x", Type: "int"}}).Validate(); err == nil {
		t.Error("arity-mismatched union accepted")
	}
}

func TestSignatureNormalisesExpressions(t *testing.T) {
	a := &Node{Name: "s1", Type: OpSelection, Params: map[string]string{"predicate": "n_name='Spain'"}}
	b := &Node{Name: "s2", Type: OpSelection, Params: map[string]string{"predicate": "n_name  =   'Spain'"}}
	if a.Signature() != b.Signature() {
		t.Errorf("signatures differ:\n%s\n%s", a.Signature(), b.Signature())
	}
	c := &Node{Name: "s3", Type: OpSelection, Params: map[string]string{"predicate": "n_name = 'France'"}}
	if a.Signature() == c.Signature() {
		t.Error("different predicates share a signature")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := revenueFlow(t)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	n, _ := c.Node("SELECTION_spain")
	n.Params["predicate"] = "n_name = 'France'"
	n.Fields = nil
	orig, _ := d.Node("SELECTION_spain")
	if orig.Params["predicate"] != "n_name = 'Spain'" {
		t.Error("Clone shares params")
	}
	if len(orig.Fields) == 0 {
		t.Error("Clone shares fields")
	}
	if err := c.AddNode(&Node{Name: "extra", Type: OpSelection}); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Node("extra"); ok {
		t.Error("Clone shares node list")
	}
}

func TestParamParsers(t *testing.T) {
	n := &Node{Name: "j", Type: OpJoin, Params: map[string]string{"on": "a=b, c=d"}}
	pairs, err := n.JoinPairs()
	if err != nil || len(pairs) != 2 || pairs[1] != [2]string{"c", "d"} {
		t.Errorf("JoinPairs = %v, %v", pairs, err)
	}
	agg := &Node{Name: "g", Type: OpAggregation, Params: map[string]string{
		"group": " a , b ", "aggregates": "s:sum:x; c:COUNT:*",
	}}
	if got := agg.GroupBy(); len(got) != 2 || got[0] != "a" {
		t.Errorf("GroupBy = %v", got)
	}
	specs, err := agg.Aggregates()
	if err != nil || len(specs) != 2 || specs[0].Func != "SUM" || specs[1].Func != "COUNT" {
		t.Errorf("Aggregates = %v, %v", specs, err)
	}
	// COUNT without column.
	cnt := &Node{Name: "c", Type: OpAggregation, Params: map[string]string{"aggregates": "n:COUNT:"}}
	if specs, err := cnt.Aggregates(); err != nil || specs[0].Col != "" {
		t.Errorf("COUNT parse = %v, %v", specs, err)
	}
	sum := &Node{Name: "s", Type: OpAggregation, Params: map[string]string{"aggregates": "n:SUM:"}}
	if _, err := sum.Aggregates(); err == nil {
		t.Error("SUM without column accepted")
	}
}
