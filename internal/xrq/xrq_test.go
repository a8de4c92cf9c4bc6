package xrq

import (
	"os"
	"strings"
	"testing"

	"quarry/internal/ontology"
)

func tpchOnto(t *testing.T) *ontology.Ontology {
	t.Helper()
	o := ontology.New("tpch")
	add := func(id string, props ...[2]string) {
		o.AddConcept(id, id)
		for _, p := range props {
			if err := o.AddProperty(id, p[0], p[1], ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("Lineitem", [2]string{"l_extendedprice", "float"}, [2]string{"l_discount", "float"}, [2]string{"l_quantity", "float"})
	add("Part", [2]string{"p_name", "string"})
	add("Supplier", [2]string{"s_name", "string"})
	add("Nation", [2]string{"n_name", "string"})
	return o
}

// revenueIR is the requirement of the paper's Figure 4: average
// revenue per part and supplier, for parts ordered from Spain.
func revenueIR() *Requirement {
	return &Requirement{
		ID:   "IR1",
		Name: "revenue per part and supplier from Spain",
		Dimensions: []Dimension{
			{Concept: "Part.p_name"},
			{Concept: "Supplier.s_name"},
		},
		Measures: []Measure{
			{ID: "revenue", Function: "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)"},
		},
		Slicers: []Slicer{
			{Concept: "Nation.n_name", Operator: "=", Value: "Spain"},
		},
		Aggs: []Aggregation{
			{Order: 1, Dimension: "Part.p_name", Measure: "revenue", Function: AggAvg},
			{Order: 1, Dimension: "Supplier.s_name", Measure: "revenue", Function: AggAvg},
		},
	}
}

func TestValidateRevenueIR(t *testing.T) {
	o := tpchOnto(t)
	r := revenueIR()
	if err := r.Validate(o); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	o := tpchOnto(t)
	cases := map[string]func(r *Requirement){
		"no id":            func(r *Requirement) { r.ID = "" },
		"no measures":      func(r *Requirement) { r.Measures = nil },
		"no dimensions":    func(r *Requirement) { r.Dimensions = nil },
		"duplicate dim":    func(r *Requirement) { r.Dimensions = append(r.Dimensions, Dimension{Concept: "Part.p_name"}) },
		"unknown dim":      func(r *Requirement) { r.Dimensions[0].Concept = "Ghost.g" },
		"unqualified dim":  func(r *Requirement) { r.Dimensions[0].Concept = "Part" },
		"unnamed measure":  func(r *Requirement) { r.Measures[0].ID = "" },
		"dup measure":      func(r *Requirement) { r.Measures = append(r.Measures, r.Measures[0]) },
		"broken formula":   func(r *Requirement) { r.Measures[0].Function = "1 +" },
		"non-numeric":      func(r *Requirement) { r.Measures[0].Function = "Part.p_name" },
		"unknown attr":     func(r *Requirement) { r.Measures[0].Function = "Lineitem.ghost * 2" },
		"unknown slicer":   func(r *Requirement) { r.Slicers[0].Concept = "Ghost.g" },
		"bad operator":     func(r *Requirement) { r.Slicers[0].Operator = "~~" },
		"agg unknown dim":  func(r *Requirement) { r.Aggs[0].Dimension = "Ghost.g" },
		"agg unknown meas": func(r *Requirement) { r.Aggs[0].Measure = "ghost" },
		"agg bad func":     func(r *Requirement) { r.Aggs[0].Function = "MEDIAN" },
	}
	for name, breakIt := range cases {
		r := revenueIR()
		breakIt(r)
		if err := r.Validate(o); err == nil {
			t.Errorf("%s: Validate accepted broken requirement", name)
		}
	}
}

func TestSlicerPredicate(t *testing.T) {
	s := Slicer{Concept: "Nation.n_name", Operator: "=", Value: "Spain"}
	n, err := s.Predicate("string")
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "Nation.n_name = 'Spain'" {
		t.Errorf("predicate = %q", n.String())
	}
	num := Slicer{Concept: "Lineitem.l_quantity", Operator: ">=", Value: "10"}
	n, err = num.Predicate("float")
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "Lineitem.l_quantity >= 10" {
		t.Errorf("predicate = %q", n.String())
	}
	neg := Slicer{Concept: "Lineitem.l_quantity", Operator: "<", Value: "-5"}
	if _, err := neg.Predicate("float"); err != nil {
		t.Errorf("negative literal rejected: %v", err)
	}
	boolean := Slicer{Concept: "X.flag", Operator: "=", Value: "true"}
	if _, err := boolean.Predicate("bool"); err != nil {
		t.Errorf("bool literal rejected: %v", err)
	}
	if _, err := (Slicer{Concept: "X.flag", Operator: "=", Value: "maybe"}).Predicate("bool"); err == nil {
		t.Error("bad bool literal accepted")
	}
	if _, err := (Slicer{Concept: "X.q", Operator: "=", Value: "not a number"}).Predicate("float"); err == nil {
		t.Error("non-literal numeric value accepted")
	}
	if _, err := (Slicer{Concept: "X.q", Operator: "=", Value: "1 + 1"}).Predicate("float"); err == nil {
		t.Error("expression value accepted")
	}
}

func TestParseAggFunc(t *testing.T) {
	for in, want := range map[string]AggFunc{
		"SUM": AggSum, "sum": AggSum,
		"AVERAGE": AggAvg, "avg": AggAvg, "Mean": AggAvg,
		"MINIMUM": AggMin, "max": AggMax, "count": AggCount,
	} {
		got, err := ParseAggFunc(in)
		if err != nil || got != want {
			t.Errorf("ParseAggFunc(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAggFunc("median"); err == nil {
		t.Error("median accepted")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	r := revenueIR()
	text, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<cube", "refID=\"revenue\"", "<operator>=</operator>", "<value>Spain</value>"} {
		if !strings.Contains(text, want) {
			t.Errorf("serialised xRQ missing %q:\n%s", want, text)
		}
	}
	r2, err := Unmarshal(text)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ID != r.ID || r2.Name != r.Name {
		t.Errorf("header changed: %+v", r2)
	}
	if len(r2.Dimensions) != 2 || len(r2.Measures) != 1 || len(r2.Slicers) != 1 || len(r2.Aggs) != 2 {
		t.Fatalf("shape changed: %+v", r2)
	}
	if r2.Measures[0].Function != r.Measures[0].Function {
		t.Errorf("formula changed: %q", r2.Measures[0].Function)
	}
	if r2.Slicers[0] != r.Slicers[0] {
		t.Errorf("slicer changed: %+v", r2.Slicers[0])
	}
	o := tpchOnto(t)
	if err := r2.Validate(o); err != nil {
		t.Errorf("round-tripped requirement invalid: %v", err)
	}
}

func TestReadPaperStyleDocument(t *testing.T) {
	// A document spelled like the paper's snippet (AVERAGE spelling,
	// whitespace in function).
	src, err := os.ReadFile("testdata/paper_style.xrq")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Unmarshal(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if r.Aggs[0].Function != AggAvg {
		t.Errorf("AVERAGE parsed as %v", r.Aggs[0].Function)
	}
	if err := r.Validate(tpchOnto(t)); err != nil {
		t.Errorf("paper-style doc invalid: %v", err)
	}
}

func TestReadErrors(t *testing.T) {
	for _, src := range []string{
		"not xml",
		`<cube id="x"><aggregations><aggregation><function>median</function></aggregation></aggregations></cube>`,
	} {
		if _, err := Unmarshal(src); err == nil {
			t.Errorf("Unmarshal accepted %q", src)
		}
	}
}

func TestClone(t *testing.T) {
	r := revenueIR()
	c := r.Clone()
	c.Dimensions[0].Concept = "changed"
	c.Measures[0].ID = "changed"
	if r.Dimensions[0].Concept == "changed" || r.Measures[0].ID == "changed" {
		t.Error("Clone shares backing arrays")
	}
}
