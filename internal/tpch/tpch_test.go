package tpch

import (
	"testing"

	"quarry/internal/storage"
)

func TestCatalogValid(t *testing.T) {
	c, err := Catalog(1)
	if err != nil {
		t.Fatal(err)
	}
	store, ok := c.Store(StoreName)
	if !ok {
		t.Fatal("store missing")
	}
	if got := len(store.Relations()); got != 8 {
		t.Errorf("relations = %d, want 8", got)
	}
	li, _ := store.Relation("lineitem")
	if li.Stats.Rows != 600 {
		t.Errorf("lineitem rows = %d", li.Stats.Rows)
	}
	if li.DistinctValues("l_returnflag") != 3 {
		t.Errorf("distinct returnflags = %d", li.DistinctValues("l_returnflag"))
	}
}

func TestOntologyValid(t *testing.T) {
	o, err := Ontology()
	if err != nil {
		t.Fatal(err)
	}
	if c, p := len(o.Concepts()), len(o.ObjectProperties()); c != 8 || p != 8 {
		t.Errorf("%d concepts and %d object properties, want 8 and 8", c, p)
	}
	// The MD-critical path of the demo: Lineitem functionally reaches
	// Nation (via Partsupp→Supplier) and Region.
	if _, ok := o.ShortestToOnePath("Lineitem", "Nation"); !ok {
		t.Error("no functional path Lineitem→Nation")
	}
	if _, ok := o.ShortestToOnePath("Partsupp", "Region"); !ok {
		t.Error("no functional path Partsupp→Region")
	}
	// Lineitem is the top fact candidate.
	if ranked := o.FactCandidates(); ranked[0].Concept != "Lineitem" {
		t.Errorf("top fact candidate = %s", ranked[0].Concept)
	}
}

func TestMappingValidates(t *testing.T) {
	o, err := Ontology()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Catalog(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Mapping()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(o, c); err != nil {
		t.Fatalf("mapping invalid: %v", err)
	}
	store, rel, col, err := m.Column("Lineitem.l_extendedprice")
	if err != nil || store != StoreName || rel != "lineitem" || col != "l_extendedprice" {
		t.Errorf("Column = %s %s %s, %v", store, rel, col, err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	db1 := storage.NewMemDB()
	sz1, err := Generate(db1, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	db2 := storage.NewMemDB()
	sz2, err := Generate(db2, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sz1 != sz2 {
		t.Fatalf("sizes differ: %+v vs %+v", sz1, sz2)
	}
	for _, name := range db1.TableNames() {
		t1, _ := db1.Table(name)
		t2, ok := db2.Table(name)
		if !ok {
			t.Fatalf("table %s missing in second run", name)
		}
		r1, r2 := t1.Rows(), t2.Rows()
		if len(r1) != len(r2) {
			t.Fatalf("%s: %d vs %d rows", name, len(r1), len(r2))
		}
		for i := range r1 {
			for j := range r1[i] {
				if !r1[i][j].Equal(r2[i][j]) && !(r1[i][j].IsNull() && r2[i][j].IsNull()) {
					t.Fatalf("%s row %d col %d differs", name, i, j)
				}
			}
		}
	}
	// Different seed differs somewhere in supplier account balances.
	db3 := storage.NewMemDB()
	if _, err := Generate(db3, 1, 43); err != nil {
		t.Fatal(err)
	}
	t1, _ := db1.Table("supplier")
	t3, _ := db3.Table("supplier")
	same := true
	r1, r3 := t1.Rows(), t3.Rows()
	for i := range r1 {
		if !r1[i][3].Equal(r3[i][3]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical supplier balances")
	}
	// Supplier 0 is always Spanish (demo slicer guarantee).
	if r1[0][2].AsInt() != 24 {
		t.Errorf("supplier 0 nation = %d, want 24 (SPAIN)", r1[0][2].AsInt())
	}
}

func TestGenerateSizesAndIntegrity(t *testing.T) {
	db := storage.NewMemDB()
	sz, err := Generate(db, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := db.Table("lineitem")
	if li.NumRows() != int64(sz.Lineitem) || sz.Lineitem == 0 {
		t.Errorf("lineitem rows = %d vs %d", li.NumRows(), sz.Lineitem)
	}
	// Referential integrity: every l_suppkey exists in supplier.
	sup, _ := db.Table("supplier")
	valid := map[int64]bool{}
	for _, r := range sup.Rows() {
		valid[r[0].AsInt()] = true
	}
	for _, r := range li.Rows() {
		if !valid[r[2].AsInt()] {
			t.Fatalf("dangling l_suppkey %d", r[2].AsInt())
		}
	}
	// Spain exists in nation (demo slicer must select rows).
	nat, _ := db.Table("nation")
	foundSpain := false
	for _, r := range nat.Rows() {
		if r[1].AsString() == "SPAIN" {
			foundSpain = true
		}
	}
	if !foundSpain {
		t.Error("SPAIN missing from nation")
	}
	// lineitem (partkey, suppkey) pairs exist in partsupp.
	ps, _ := db.Table("partsupp")
	pairs := map[[2]int64]bool{}
	for _, r := range ps.Rows() {
		pairs[[2]int64{r[0].AsInt(), r[1].AsInt()}] = true
	}
	for _, r := range li.Rows() {
		k := [2]int64{r[1].AsInt(), r[2].AsInt()}
		if !pairs[k] {
			t.Fatalf("lineitem references missing partsupp %v", k)
		}
	}
}

func TestSizesScale(t *testing.T) {
	s1, s10 := SizesFor(1), SizesFor(10)
	if s10.Lineitem != 10*s1.Lineitem {
		t.Errorf("lineitem scaling: %d vs %d", s1.Lineitem, s10.Lineitem)
	}
	if s10.Region != s1.Region || s10.Nation != s1.Nation {
		t.Error("region/nation must not scale")
	}
	tiny := SizesFor(0.001)
	if tiny.Supplier < 1 {
		t.Error("sizes must stay positive")
	}
}

func TestCanonicalRequirementsValidate(t *testing.T) {
	o, err := Ontology()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range CanonicalRequirements() {
		if err := r.Validate(o); err != nil {
			t.Errorf("%s: %v", r.ID, err)
		}
	}
}

func TestGenerateRequirementsValidate(t *testing.T) {
	o, err := Ontology()
	if err != nil {
		t.Fatal(err)
	}
	reqs := GenerateRequirements(40)
	if len(reqs) != 40 {
		t.Fatalf("generated %d requirements", len(reqs))
	}
	ids := map[string]bool{}
	for _, r := range reqs {
		if ids[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
		if err := r.Validate(o); err != nil {
			t.Errorf("%s: %v", r.ID, err)
		}
	}
}
