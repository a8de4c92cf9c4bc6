package elicitor

import (
	"encoding/json"
	"testing"

	"quarry/internal/tpch"
)

func newElicitor(t *testing.T) *Elicitor {
	t.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	return New(o, m)
}

func TestSuggestFoci(t *testing.T) {
	e := newElicitor(t)
	foci := e.SuggestFoci()
	if len(foci) == 0 {
		t.Fatal("no foci")
	}
	if foci[0].Concept != "Lineitem" {
		t.Errorf("top focus = %s, want Lineitem", foci[0].Concept)
	}
}

// TestSuggestLineitem reproduces the paper's §2.1 example: choosing
// focus Lineitem, the system suggests dimensions Supplier, Nation,
// Part (among others).
func TestSuggestLineitem(t *testing.T) {
	e := newElicitor(t)
	s, err := e.Suggest("Lineitem")
	if err != nil {
		t.Fatal(err)
	}
	byConcept := map[string]DimensionSuggestion{}
	for _, d := range s.Dimensions {
		byConcept[d.Concept] = d
	}
	for _, want := range []string{"Supplier", "Nation", "Part"} {
		if _, ok := byConcept[want]; !ok {
			t.Errorf("suggested dimensions missing %s: %v", want, byConcept)
		}
	}
	// Measures include the revenue ingredients.
	foundPrice := false
	for _, m := range s.Measures {
		if m.Attribute == "Lineitem.l_extendedprice" {
			foundPrice = true
		}
	}
	if !foundPrice {
		t.Errorf("measures = %v", s.Measures)
	}
	// Slicers include Nation.n_name.
	foundNation := false
	for _, sl := range s.Slicers {
		if sl.Attribute == "Nation.n_name" {
			foundNation = true
		}
	}
	if !foundNation {
		t.Error("Nation.n_name slicer missing")
	}
	// Closer concepts score higher than farther ones with equal
	// attribute richness: Part (distance 2) vs Region (distance 4).
	if byConcept["Part"].Distance >= byConcept["Region"].Distance {
		t.Errorf("distances: Part=%d Region=%d", byConcept["Part"].Distance, byConcept["Region"].Distance)
	}
}

func TestSuggestErrors(t *testing.T) {
	e := newElicitor(t)
	if _, err := e.Suggest("Ghost"); err == nil {
		t.Error("unknown focus accepted")
	}
}

func TestSearchOnlyMapped(t *testing.T) {
	e := newElicitor(t)
	hits := e.Search("name")
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range hits {
		if !e.isMapped(h) {
			t.Errorf("unmapped hit %s", h)
		}
	}
	if hits2 := e.Search("lineitem"); len(hits2) == 0 || hits2[0] != "Lineitem" {
		t.Errorf("Search(lineitem) = %v", hits2)
	}
}

func TestGraphExport(t *testing.T) {
	e := newElicitor(t)
	g := e.Graph()
	if len(g.Nodes) != 8 || len(g.Links) != 8 {
		t.Errorf("graph = %d nodes, %d links", len(g.Nodes), len(g.Links))
	}
	// JSON-serialisable for the web front-end.
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(g.Nodes) {
		t.Error("round trip lost nodes")
	}
}

// TestGuidedRequirementAssembly drives the builder the way the demo's
// participants would: pick focus, accept suggestions, build, and the
// result is the Figure 4 revenue requirement.
func TestGuidedRequirementAssembly(t *testing.T) {
	e := newElicitor(t)
	s, err := e.Suggest("Lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// Accept the Part and Supplier dimension suggestions.
	var partAttr, supAttr string
	for _, d := range s.Dimensions {
		if d.Concept == "Part" {
			for _, a := range d.Attributes {
				if a == "Part.p_name" {
					partAttr = a
				}
			}
		}
		if d.Concept == "Supplier" {
			for _, a := range d.Attributes {
				if a == "Supplier.s_name" {
					supAttr = a
				}
			}
		}
	}
	if partAttr == "" || supAttr == "" {
		t.Fatal("expected suggestions missing")
	}
	r, err := e.NewRequirement("IR_guided", "guided revenue").
		AddMeasure("revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)").
		AddDimension(partAttr).
		AddDimension(supAttr).
		AddSlicer("Nation.n_name", "=", "SPAIN").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Dimensions) != 2 || len(r.Slicers) != 1 {
		t.Errorf("built requirement = %+v", r)
	}
}

func TestBuilderRejectsInvalid(t *testing.T) {
	e := newElicitor(t)
	if _, err := e.NewRequirement("IR_bad", "").
		AddMeasure("m", "Part.p_name"). // non-numeric
		AddDimension("Part.p_name").
		Build(); err == nil {
		t.Error("invalid requirement built")
	}
	if _, err := e.NewRequirement("IR_empty", "").Build(); err == nil {
		t.Error("empty requirement built")
	}
}
