package mapping

import (
	"strings"
	"testing"

	"quarry/internal/ontology"
	"quarry/internal/sources"
)

// fixture builds a two-concept ontology (Nation→Region), a matching
// catalog, and a complete valid mapping.
func fixture(t *testing.T) (*ontology.Ontology, *sources.Catalog, *Mapping) {
	t.Helper()
	o := ontology.New("demo")
	o.AddConcept("Nation", "")
	o.AddProperty("Nation", "n_name", "string", "")
	o.AddProperty("Nation", "population", "float", "")
	o.AddConcept("Region", "")
	o.AddProperty("Region", "r_name", "string", "")
	if err := o.AddObjectProperty("nation_region", "", "Nation", "Region", ontology.ManyToOne); err != nil {
		t.Fatal(err)
	}

	c := sources.NewCatalog()
	c.AddStore("db", "relational")
	c.AddRelation("db", &sources.Relation{
		Name: "nation",
		Attributes: []sources.Attribute{
			{Name: "n_nationkey", Type: "int"},
			{Name: "n_name", Type: "string"},
			{Name: "n_pop", Type: "int"}, // int column backing a float property
			{Name: "n_regionkey", Type: "int"},
		},
		PrimaryKey: []string{"n_nationkey"},
	})
	c.AddRelation("db", &sources.Relation{
		Name: "region",
		Attributes: []sources.Attribute{
			{Name: "r_regionkey", Type: "int"},
			{Name: "r_name", Type: "string"},
		},
		PrimaryKey: []string{"r_regionkey"},
	})

	m := New("demo-map")
	if err := m.MapConcept(ConceptMapping{
		Concept: "Nation", Store: "db", Relation: "nation",
		Attrs: map[string]string{"n_name": "n_name", "population": "n_pop"},
		Key:   []string{"n_nationkey"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.MapConcept(ConceptMapping{
		Concept: "Region", Store: "db", Relation: "region",
		Attrs: map[string]string{"r_name": "r_name"},
		Key:   []string{"r_regionkey"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.MapProperty(PropertyMapping{
		Property:   "nation_region",
		DomainCols: []string{"n_regionkey"},
		RangeCols:  []string{"r_regionkey"},
	}); err != nil {
		t.Fatal(err)
	}
	return o, c, m
}

func TestValidMapping(t *testing.T) {
	o, c, m := fixture(t)
	if err := m.Validate(o, c); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, ok := m.Concept("Region"); !ok {
		t.Error("Region is not mapped")
	}
	cm, ok := m.Concept("Nation")
	if !ok || cm.Relation != "nation" {
		t.Errorf("Concept(Nation) = %+v, %v", cm, ok)
	}
	pm, ok := m.Property("nation_region")
	if !ok || pm.DomainCols[0] != "n_regionkey" {
		t.Errorf("Property = %+v, %v", pm, ok)
	}
}

func TestColumnResolution(t *testing.T) {
	_, _, m := fixture(t)
	store, rel, col, err := m.Column("Nation.population")
	if err != nil {
		t.Fatal(err)
	}
	if store != "db" || rel != "nation" || col != "n_pop" {
		t.Errorf("Column = %s %s %s", store, rel, col)
	}
	for _, bad := range []string{"Nation", "Ghost.x", "Nation.ghost"} {
		if _, _, _, err := m.Column(bad); err == nil {
			t.Errorf("Column(%q) succeeded", bad)
		}
	}
}

func TestMappingRegistrationErrors(t *testing.T) {
	m := New("x")
	if err := m.MapConcept(ConceptMapping{}); err == nil {
		t.Error("empty concept accepted")
	}
	if err := m.MapConcept(ConceptMapping{Concept: "C", Key: nil}); err == nil {
		t.Error("keyless concept accepted")
	}
	m.MapConcept(ConceptMapping{Concept: "C", Key: []string{"k"}})
	if err := m.MapConcept(ConceptMapping{Concept: "C", Key: []string{"k"}}); err == nil {
		t.Error("duplicate concept accepted")
	}
	if err := m.MapProperty(PropertyMapping{}); err == nil {
		t.Error("empty property accepted")
	}
	if err := m.MapProperty(PropertyMapping{Property: "p", DomainCols: []string{"a"}, RangeCols: []string{"x", "y"}}); err == nil {
		t.Error("mismatched join columns accepted")
	}
}

func TestValidateCatchesBrokenBindings(t *testing.T) {
	type breakFn func(m *Mapping)
	cases := map[string]breakFn{
		"unknown concept": func(m *Mapping) {
			m.MapConcept(ConceptMapping{Concept: "Ghost", Store: "db", Relation: "nation", Key: []string{"n_nationkey"}})
		},
		"unknown store": func(m *Mapping) {
			m.concepts["Nation"].Store = "nope"
		},
		"unknown relation": func(m *Mapping) {
			m.concepts["Nation"].Relation = "nope"
		},
		"unknown ontology property": func(m *Mapping) {
			m.concepts["Nation"].Attrs["ghost"] = "n_name"
		},
		"missing column": func(m *Mapping) {
			m.concepts["Nation"].Attrs["n_name"] = "no_col"
		},
		"type clash": func(m *Mapping) {
			m.concepts["Nation"].Attrs["n_name"] = "n_nationkey" // string property → int column
		},
		"bad key column": func(m *Mapping) {
			m.concepts["Nation"].Key = []string{"nope"}
		},
		"unknown object property": func(m *Mapping) {
			m.props["ghost"] = &PropertyMapping{Property: "ghost", DomainCols: []string{"a"}, RangeCols: []string{"b"}}
		},
		"join type clash": func(m *Mapping) {
			m.props["nation_region"].RangeCols = []string{"r_name"}
		},
		"missing join column": func(m *Mapping) {
			m.props["nation_region"].DomainCols = []string{"nope"}
		},
	}
	for name, breakIt := range cases {
		o, c, m := fixture(t)
		breakIt(m)
		err := m.Validate(o, c)
		if err == nil {
			t.Errorf("%s: Validate accepted broken mapping", name)
			continue
		}
		if !strings.Contains(err.Error(), "mapping:") {
			t.Errorf("%s: error %q lacks package prefix", name, err)
		}
	}
}

func TestIntBackedFloatPropertyAllowed(t *testing.T) {
	o, c, m := fixture(t)
	// population (float) mapped to n_pop (int) must validate.
	if err := m.Validate(o, c); err != nil {
		t.Fatalf("widening mapping rejected: %v", err)
	}
}

func TestPropertyRequiresMappedEndpoints(t *testing.T) {
	o, c, _ := fixture(t)
	m := New("partial")
	m.MapConcept(ConceptMapping{
		Concept: "Nation", Store: "db", Relation: "nation",
		Attrs: map[string]string{"n_name": "n_name"},
		Key:   []string{"n_nationkey"},
	})
	m.MapProperty(PropertyMapping{
		Property:   "nation_region",
		DomainCols: []string{"n_regionkey"},
		RangeCols:  []string{"r_regionkey"},
	})
	if err := m.Validate(o, c); err == nil {
		t.Error("property with unmapped range concept accepted")
	}
}
