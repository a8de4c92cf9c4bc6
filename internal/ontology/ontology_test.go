package ontology

import (
	"testing"
)

// miniTPCH builds a small TPC-H-shaped ontology used across the tests:
//
//	Lineitem →(n:1) Orders →(n:1) Customer →(n:1) Nation →(n:1) Region
//	Lineitem →(n:1) Partsupp →(n:1) Part
//	Partsupp →(n:1) Supplier →(n:1) Nation
func miniTPCH(t *testing.T) *Ontology {
	t.Helper()
	o := New("tpch-mini")
	add := func(id string, props ...[2]string) {
		if _, err := o.AddConcept(id, id); err != nil {
			t.Fatal(err)
		}
		for _, p := range props {
			if err := o.AddProperty(id, p[0], p[1], ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("Lineitem", [2]string{"l_quantity", "float"}, [2]string{"l_extendedprice", "float"}, [2]string{"l_discount", "float"})
	add("Orders", [2]string{"o_orderdate", "string"}, [2]string{"o_totalprice", "float"})
	add("Customer", [2]string{"c_name", "string"}, [2]string{"c_acctbal", "float"})
	add("Nation", [2]string{"n_name", "string"})
	add("Region", [2]string{"r_name", "string"})
	add("Partsupp", [2]string{"ps_supplycost", "float"}, [2]string{"ps_availqty", "int"})
	add("Part", [2]string{"p_name", "string"}, [2]string{"p_retailprice", "float"})
	add("Supplier", [2]string{"s_name", "string"})
	rel := func(id, dom, rng string) {
		if err := o.AddObjectProperty(id, "", dom, rng, ManyToOne); err != nil {
			t.Fatal(err)
		}
	}
	rel("lineitem_orders", "Lineitem", "Orders")
	rel("orders_customer", "Orders", "Customer")
	rel("customer_nation", "Customer", "Nation")
	rel("nation_region", "Nation", "Region")
	rel("lineitem_partsupp", "Lineitem", "Partsupp")
	rel("partsupp_part", "Partsupp", "Part")
	rel("partsupp_supplier", "Partsupp", "Supplier")
	rel("supplier_nation", "Supplier", "Nation")
	return o
}

func TestBuildErrors(t *testing.T) {
	o := New("x")
	if _, err := o.AddConcept("", ""); err == nil {
		t.Error("empty concept id accepted")
	}
	if _, err := o.AddConcept("A.B", ""); err == nil {
		t.Error("dotted concept id accepted")
	}
	if _, err := o.AddConcept("A", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddConcept("A", ""); err == nil {
		t.Error("duplicate concept accepted")
	}
	if err := o.AddProperty("missing", "p", "int", ""); err == nil {
		t.Error("property on unknown concept accepted")
	}
	if err := o.AddProperty("A", "p", "blob", ""); err == nil {
		t.Error("unknown property type accepted")
	}
	if err := o.AddProperty("A", "p", "int", ""); err != nil {
		t.Fatal(err)
	}
	if err := o.AddProperty("A", "p", "int", ""); err == nil {
		t.Error("duplicate property accepted")
	}
	if err := o.AddObjectProperty("r", "", "A", "missing", ManyToOne); err == nil {
		t.Error("unknown range accepted")
	}
	if err := o.AddObjectProperty("r", "", "missing", "A", ManyToOne); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestQualified(t *testing.T) {
	o := miniTPCH(t)
	q := Qualify("Part", "p_name")
	if q != "Part.p_name" {
		t.Fatalf("Qualify = %q", q)
	}
	c, p, err := o.ResolveQualified(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "Part" || p.Name != "p_name" || p.Type != "string" {
		t.Errorf("ResolveQualified = %v %v", c.ID, p)
	}
	for _, bad := range []string{"Part", ".x", "Part.", "Nope.p", "Part.nope"} {
		if _, _, err := o.ResolveQualified(bad); err == nil {
			t.Errorf("ResolveQualified(%q) succeeded", bad)
		}
	}
}

func TestShortestToOnePath(t *testing.T) {
	o := miniTPCH(t)
	p, ok := o.ShortestToOnePath("Lineitem", "Region")
	if !ok {
		t.Fatal("no path Lineitem→Region")
	}
	got := "Lineitem"
	for _, s := range p {
		got += "→" + s.To
	}
	want := "Lineitem→Orders→Customer→Nation→Region"
	if got != want {
		t.Errorf("path = %s, want %s", got, want)
	}
	for _, s := range p {
		if !s.ToOne() {
			t.Errorf("step %s is not to-one", s.Prop.ID)
		}
	}
	// No functional path in the reverse direction.
	if _, ok := o.ShortestToOnePath("Region", "Lineitem"); ok {
		t.Error("found to-one path Region→Lineitem, want none")
	}
	// Self path is empty.
	p, ok = o.ShortestToOnePath("Part", "Part")
	if !ok || len(p) != 0 {
		t.Errorf("self path = %v, %v", p, ok)
	}
	if _, ok := o.ShortestToOnePath("Nope", "Part"); ok {
		t.Error("path from unknown concept")
	}
}

func TestToOneClosure(t *testing.T) {
	o := miniTPCH(t)
	cl := o.ToOneClosure("Lineitem")
	// Lineitem functionally reaches every other concept in the fixture.
	for _, want := range []string{"Lineitem", "Orders", "Customer", "Nation", "Region", "Partsupp", "Part", "Supplier"} {
		if _, ok := cl[want]; !ok {
			t.Errorf("closure missing %s", want)
		}
	}
	if len(cl) != 8 {
		t.Errorf("closure size = %d, want 8", len(cl))
	}
	// Paths are valid chains rooted at Lineitem.
	for target, path := range cl {
		if len(path) == 0 {
			if target != "Lineitem" {
				t.Errorf("empty path for %s", target)
			}
			continue
		}
		if path[0].From != "Lineitem" {
			t.Errorf("path to %s starts at %s", target, path[0].From)
		}
		if path[len(path)-1].To != target {
			t.Errorf("path to %s ends at %s", target, path[len(path)-1].To)
		}
		for i := 1; i < len(path); i++ {
			if path[i].From != path[i-1].To {
				t.Errorf("broken chain to %s", target)
			}
		}
	}
	// Region reaches only itself.
	if cl := o.ToOneClosure("Region"); len(cl) != 1 {
		t.Errorf("Region closure = %d, want 1", len(cl))
	}
}

func TestClosureViaReverseEdge(t *testing.T) {
	// One-to-many declared Orders→Lineitem is functional in reverse.
	o := New("rev")
	o.AddConcept("Orders", "")
	o.AddConcept("Lineitem", "")
	if err := o.AddObjectProperty("contains", "", "Orders", "Lineitem", OneToMany); err != nil {
		t.Fatal(err)
	}
	p, ok := o.ShortestToOnePath("Lineitem", "Orders")
	if !ok || len(p) != 1 || !p[0].Reverse {
		t.Fatalf("reverse path = %v, %v", p, ok)
	}
	if _, ok := o.ShortestToOnePath("Orders", "Lineitem"); ok {
		t.Error("one-to-many should not be functional forwards")
	}
}

func TestFactCandidates(t *testing.T) {
	o := miniTPCH(t)
	ranked := o.FactCandidates()
	if len(ranked) != 8 {
		t.Fatalf("candidates = %d", len(ranked))
	}
	if ranked[0].Concept != "Lineitem" {
		t.Errorf("top fact candidate = %s, want Lineitem", ranked[0].Concept)
	}
	if ranked[0].Dimensions != 7 {
		t.Errorf("Lineitem dimension count = %d, want 7", ranked[0].Dimensions)
	}
	// Region (no numeric props, no reach) should rank last.
	if last := ranked[len(ranked)-1]; last.Concept != "Region" && last.Concept != "Nation" {
		t.Errorf("last candidate = %s", last.Concept)
	}
}

func TestSearchVocabulary(t *testing.T) {
	o := miniTPCH(t)
	got := o.SearchVocabulary("name")
	// All *_name properties.
	want := []string{"Customer.c_name", "Nation.n_name", "Part.p_name", "Region.r_name", "Supplier.s_name"}
	if len(got) != len(want) {
		t.Fatalf("SearchVocabulary = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SearchVocabulary = %v, want %v", got, want)
		}
	}
	if got := o.SearchVocabulary("lineitem"); len(got) == 0 || got[0] != "Lineitem" {
		t.Errorf("SearchVocabulary(lineitem) = %v", got)
	}
}
