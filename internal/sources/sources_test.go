package sources

import (
	"testing"
)

func demoCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	if _, err := c.AddStore("tpch", "relational"); err != nil {
		t.Fatal(err)
	}
	err := c.AddRelation("tpch", &Relation{
		Name: "nation",
		Attributes: []Attribute{
			{Name: "n_nationkey", Type: "int"},
			{Name: "n_name", Type: "string"},
			{Name: "n_regionkey", Type: "int"},
		},
		PrimaryKey: []string{"n_nationkey"},
		ForeignKeys: []ForeignKey{
			{Columns: []string{"n_regionkey"}, RefRelation: "region", RefColumns: []string{"r_regionkey"}},
		},
		Stats: Stats{Rows: 25, Distinct: map[string]int64{"n_name": 25, "n_regionkey": 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.AddRelation("tpch", &Relation{
		Name: "region",
		Attributes: []Attribute{
			{Name: "r_regionkey", Type: "int"},
			{Name: "r_name", Type: "string"},
		},
		PrimaryKey: []string{"r_regionkey"},
		Stats:      Stats{Rows: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogBasics(t *testing.T) {
	c := demoCatalog(t)
	d, ok := c.Store("tpch")
	if !ok {
		t.Fatal("store missing")
	}
	if len(d.Relations()) != 2 {
		t.Fatalf("relations = %d", len(d.Relations()))
	}
	r, ok := d.Relation("nation")
	if !ok {
		t.Fatal("nation missing")
	}
	a, ok := r.Attribute("n_name")
	if !ok || a.Type != "string" {
		t.Errorf("n_name = %+v, %v", a, ok)
	}
	if !r.HasAttribute("n_regionkey") || r.HasAttribute("bogus") {
		t.Error("HasAttribute wrong")
	}
	if len(r.Attributes) != 3 || r.Attributes[0].Name != "n_nationkey" {
		t.Errorf("Attributes = %v", r.Attributes)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDistinctValues(t *testing.T) {
	c := demoCatalog(t)
	d, _ := c.Store("tpch")
	r, _ := d.Relation("nation")
	if got := r.DistinctValues("n_name"); got != 25 {
		t.Errorf("distinct n_name = %d", got)
	}
	if got := r.DistinctValues("n_regionkey"); got != 5 {
		t.Errorf("distinct n_regionkey = %d", got)
	}
	// Unrecorded column falls back to row count.
	if got := r.DistinctValues("n_nationkey"); got != 25 {
		t.Errorf("distinct n_nationkey = %d", got)
	}
	// Relation with no stats at all defaults to 1.
	empty := &Relation{Name: "x", Attributes: []Attribute{{Name: "a", Type: "int"}}}
	c.AddRelation("tpch", empty)
	if got := empty.DistinctValues("a"); got != 1 {
		t.Errorf("distinct on stat-less relation = %d", got)
	}
}

func TestCatalogErrors(t *testing.T) {
	c := NewCatalog()
	if _, err := c.AddStore("", ""); err == nil {
		t.Error("empty store name accepted")
	}
	c.AddStore("s", "relational")
	if _, err := c.AddStore("s", "relational"); err == nil {
		t.Error("duplicate store accepted")
	}
	if err := c.AddRelation("missing", &Relation{Name: "r"}); err == nil {
		t.Error("relation on unknown store accepted")
	}
	if err := c.AddRelation("s", &Relation{}); err == nil {
		t.Error("empty relation name accepted")
	}
	if err := c.AddRelation("s", &Relation{
		Name:       "r",
		Attributes: []Attribute{{Name: "a", Type: "int"}, {Name: "a", Type: "int"}},
	}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if err := c.AddRelation("s", &Relation{
		Name:       "r",
		Attributes: []Attribute{{Name: "a", Type: "blob"}},
	}); err == nil {
		t.Error("bad type accepted")
	}
	if err := c.AddRelation("s", &Relation{
		Name:       "r",
		Attributes: []Attribute{{Name: "a", Type: "int"}},
		PrimaryKey: []string{"nope"},
	}); err == nil {
		t.Error("bad primary key accepted")
	}
	if err := c.AddRelation("s", &Relation{
		Name:       "r",
		Attributes: []Attribute{{Name: "a", Type: "int"}},
		PrimaryKey: []string{"a"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRelation("s", &Relation{Name: "r"}); err == nil {
		t.Error("duplicate relation accepted")
	}
}

func TestValidateForeignKeys(t *testing.T) {
	mk := func(fk ForeignKey) *Catalog {
		c := NewCatalog()
		c.AddStore("s", "relational")
		c.AddRelation("s", &Relation{
			Name:        "child",
			Attributes:  []Attribute{{Name: "k", Type: "int"}, {Name: "fkc", Type: "int"}},
			ForeignKeys: []ForeignKey{fk},
		})
		c.AddRelation("s", &Relation{
			Name:       "parent",
			Attributes: []Attribute{{Name: "pk", Type: "int"}, {Name: "sk", Type: "string"}},
		})
		return c
	}
	ok := mk(ForeignKey{Columns: []string{"fkc"}, RefRelation: "parent", RefColumns: []string{"pk"}})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid FK rejected: %v", err)
	}
	bad := []ForeignKey{
		{Columns: []string{"fkc"}, RefRelation: "missing", RefColumns: []string{"pk"}},
		{Columns: []string{"fkc"}, RefRelation: "parent", RefColumns: []string{"pk", "sk"}},
		{Columns: []string{"nope"}, RefRelation: "parent", RefColumns: []string{"pk"}},
		{Columns: []string{"fkc"}, RefRelation: "parent", RefColumns: []string{"nope"}},
		{Columns: []string{"fkc"}, RefRelation: "parent", RefColumns: []string{"sk"}}, // type clash
		{Columns: nil, RefRelation: "parent", RefColumns: nil},
	}
	for i, fk := range bad {
		if err := mk(fk).Validate(); err == nil {
			t.Errorf("bad FK %d accepted", i)
		}
	}
}
