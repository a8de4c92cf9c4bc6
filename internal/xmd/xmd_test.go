package xmd

import (
	"testing"
)

// revenueStar is the unified design of the paper's Figure 3: a revenue
// fact over Part, Supplier and Orders(date) dimensions, with Part and
// Supplier rolling up geographically.
func revenueStar() *Schema {
	return &Schema{
		Name: "demo",
		Facts: []*Fact{{
			Name:    "fact_table_revenue",
			Concept: "Lineitem",
			Measures: []Measure{{
				Name: "revenue", Type: "float", Additivity: AdditivityFlow,
				Formula: "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
			}},
			Uses: []DimensionUse{
				{Dimension: "Part", Level: "Part"},
				{Dimension: "Supplier", Level: "Supplier"},
			},
		}},
		Dimensions: []*Dimension{
			{
				Name: "Part",
				Levels: []*Level{{
					Name: "Part", Concept: "Part", Key: "p_name",
					Descriptors: []Descriptor{{Name: "p_name", Type: "string", Attr: "Part.p_name"}},
				}},
			},
			{
				Name: "Supplier",
				Levels: []*Level{
					{
						Name: "Supplier", Concept: "Supplier", Key: "s_name",
						Descriptors: []Descriptor{{Name: "s_name", Type: "string", Attr: "Supplier.s_name"}},
					},
					{
						Name: "Nation", Concept: "Nation", Key: "n_name",
						Descriptors: []Descriptor{{Name: "n_name", Type: "string", Attr: "Nation.n_name"}},
					},
					{
						Name: "Region", Concept: "Region", Key: "r_name",
						Descriptors: []Descriptor{{Name: "r_name", Type: "string", Attr: "Region.r_name"}},
					},
				},
				Rollups: []Rollup{
					{From: "Supplier", To: "Nation"},
					{From: "Nation", To: "Region"},
				},
			},
		},
	}
}

func TestValidateStar(t *testing.T) {
	s := revenueStar()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := map[string]func(s *Schema){
		"no name":           func(s *Schema) { s.Name = "" },
		"dup fact":          func(s *Schema) { s.Facts = append(s.Facts, s.Facts[0]) },
		"unnamed fact":      func(s *Schema) { s.Facts[0].Name = "" },
		"no measures":       func(s *Schema) { s.Facts[0].Measures = nil },
		"unnamed measure":   func(s *Schema) { s.Facts[0].Measures[0].Name = "" },
		"dup measure":       func(s *Schema) { s.Facts[0].Measures = append(s.Facts[0].Measures, s.Facts[0].Measures[0]) },
		"string measure":    func(s *Schema) { s.Facts[0].Measures[0].Type = "string" },
		"bad additivity":    func(s *Schema) { s.Facts[0].Measures[0].Additivity = "sometimes" },
		"no uses":           func(s *Schema) { s.Facts[0].Uses = nil },
		"dup use":           func(s *Schema) { s.Facts[0].Uses = append(s.Facts[0].Uses, s.Facts[0].Uses[0]) },
		"unknown dim":       func(s *Schema) { s.Facts[0].Uses[0].Dimension = "Ghost" },
		"unknown level":     func(s *Schema) { s.Facts[0].Uses[0].Level = "Ghost" },
		"non-base link":     func(s *Schema) { s.Facts[0].Uses[1].Level = "Nation" },
		"dup dimension":     func(s *Schema) { s.Dimensions = append(s.Dimensions, s.Dimensions[0]) },
		"unnamed dimension": func(s *Schema) { s.Dimensions[0].Name = "" },
		"no levels":         func(s *Schema) { s.Dimensions[0].Levels = nil },
		"dup level":         func(s *Schema) { d := s.Dimensions[1]; d.Levels = append(d.Levels, d.Levels[0]) },
		"unnamed level":     func(s *Schema) { s.Dimensions[0].Levels[0].Name = "" },
		"dup descriptor": func(s *Schema) {
			l := s.Dimensions[0].Levels[0]
			l.Descriptors = append(l.Descriptors, l.Descriptors[0])
		},
		"bad descriptor type": func(s *Schema) { s.Dimensions[0].Levels[0].Descriptors[0].Type = "blob" },
		"key not descriptor":  func(s *Schema) { s.Dimensions[0].Levels[0].Key = "ghost" },
		"rollup from ghost":   func(s *Schema) { s.Dimensions[1].Rollups[0].From = "Ghost" },
		"rollup to ghost":     func(s *Schema) { s.Dimensions[1].Rollups[0].To = "Ghost" },
		"self rollup":         func(s *Schema) { s.Dimensions[1].Rollups[0] = Rollup{From: "Nation", To: "Nation"} },
		"rollup cycle": func(s *Schema) {
			s.Dimensions[1].Rollups = append(s.Dimensions[1].Rollups, Rollup{From: "Region", To: "Supplier"})
		},
	}
	for name, breakIt := range cases {
		s := revenueStar()
		breakIt(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken schema", name)
		}
	}
}

func TestBaseLevelsAndRollsUpTo(t *testing.T) {
	s := revenueStar()
	d, _ := s.Dimension("Supplier")
	base := d.BaseLevels()
	if len(base) != 1 || base[0].Name != "Supplier" {
		t.Fatalf("BaseLevels = %v", base)
	}
	if !d.RollsUpTo("Supplier", "Region") {
		t.Error("Supplier should roll up to Region")
	}
	if !d.RollsUpTo("Nation", "Nation") {
		t.Error("RollsUpTo should be reflexive")
	}
	if d.RollsUpTo("Region", "Supplier") {
		t.Error("Region must not roll down")
	}
}

func TestSharedDimensions(t *testing.T) {
	s := revenueStar()
	if got := s.SharedDimensions(); len(got) != 0 {
		t.Fatalf("single fact shares dims: %v", got)
	}
	// Add a second fact sharing Part.
	s.Facts = append(s.Facts, &Fact{
		Name: "fact_table_netprofit", Concept: "Partsupp",
		Measures: []Measure{{Name: "netprofit", Type: "float", Additivity: AdditivityFlow}},
		Uses:     []DimensionUse{{Dimension: "Part", Level: "Part"}},
	})
	if err := s.Validate(); err != nil {
		t.Fatalf("constellation invalid: %v", err)
	}
	got := s.SharedDimensions()
	if len(got) != 1 || got[0] != "Part" {
		t.Errorf("SharedDimensions = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := revenueStar()
	c := s.Clone()
	c.Facts[0].Measures[0].Name = "changed"
	c.Dimensions[1].Levels[0].Descriptors[0].Name = "changed"
	c.Dimensions[1].Rollups[0].From = "changed"
	if s.Facts[0].Measures[0].Name == "changed" ||
		s.Dimensions[1].Levels[0].Descriptors[0].Name == "changed" ||
		s.Dimensions[1].Rollups[0].From == "changed" {
		t.Error("Clone shares state with original")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("original corrupted: %v", err)
	}
}

func TestStats(t *testing.T) {
	s := revenueStar()
	st := s.Stats()
	want := Stats{Facts: 1, Dimensions: 2, Levels: 4, Descriptors: 4, Rollups: 2, Measures: 1, Uses: 2, SharedDims: 0}
	if st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
}

func TestLookups(t *testing.T) {
	s := revenueStar()
	if _, ok := s.Fact("fact_table_revenue"); !ok {
		t.Error("Fact lookup failed")
	}
	if _, ok := s.Fact("nope"); ok {
		t.Error("Fact false positive")
	}
	d, ok := s.Dimension("Supplier")
	if !ok {
		t.Fatal("Dimension lookup failed")
	}
	l, ok := d.Level("Nation")
	if !ok || l.Concept != "Nation" {
		t.Error("Level lookup failed")
	}
	if _, ok := l.Descriptor("n_name"); !ok {
		t.Error("Descriptor lookup failed")
	}
	if _, ok := l.Descriptor("nope"); ok {
		t.Error("Descriptor false positive")
	}
	f, _ := s.Fact("fact_table_revenue")
	if !f.UsesDimension("Part") || f.UsesDimension("Ghost") {
		t.Error("UsesDimension wrong")
	}
}

func TestMultipleHierarchiesShareBase(t *testing.T) {
	// A dimension with two branches (Part→Brand, Part→Category) has a
	// single base level and two roll-up paths; it must validate.
	d := &Dimension{
		Name: "Part",
		Levels: []*Level{
			{Name: "Part"}, {Name: "Brand"}, {Name: "Category"},
		},
		Rollups: []Rollup{{From: "Part", To: "Brand"}, {From: "Part", To: "Category"}},
	}
	s := &Schema{
		Name:       "multi",
		Facts:      []*Fact{{Name: "f", Measures: []Measure{{Name: "m", Type: "int", Additivity: AdditivityFlow}}, Uses: []DimensionUse{{Dimension: "Part", Level: "Part"}}}},
		Dimensions: []*Dimension{d},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("branching hierarchy rejected: %v", err)
	}
	if !d.RollsUpTo("Part", "Category") || d.RollsUpTo("Brand", "Category") {
		t.Error("rollup closure wrong")
	}
}
