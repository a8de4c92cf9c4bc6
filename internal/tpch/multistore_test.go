package tpch

import (
	"testing"

	"quarry/internal/storage"
)

func TestMultiStoreCatalog(t *testing.T) {
	c, err := MultiStoreCatalog(1)
	if err != nil {
		t.Fatal(err)
	}
	sales, ok := c.Store(SalesStore)
	if !ok {
		t.Fatal("sales store missing")
	}
	catalog, ok := c.Store(CatalogStore)
	if !ok {
		t.Fatal("catalog store missing")
	}
	if got := len(sales.Relations()); got != 3 {
		t.Errorf("sales relations = %d, want 3", got)
	}
	if got := len(catalog.Relations()); got != 5 {
		t.Errorf("catalog relations = %d, want 5", got)
	}
	// Cross-store foreign keys were dropped, same-store ones kept.
	li, _ := sales.Relation("lineitem")
	for _, fk := range li.ForeignKeys {
		if fk.RefRelation == "part" || fk.RefRelation == "supplier" {
			t.Errorf("cross-store FK kept: %v", fk)
		}
	}
	found := false
	for _, fk := range li.ForeignKeys {
		if fk.RefRelation == "orders" {
			found = true
		}
	}
	if !found {
		t.Error("same-store FK lineitem→orders lost")
	}
}

func TestMultiStoreMappingValidates(t *testing.T) {
	o, err := Ontology()
	if err != nil {
		t.Fatal(err)
	}
	c, err := MultiStoreCatalog(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MultiStoreMapping()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(o, c); err != nil {
		t.Fatalf("multi-store mapping invalid: %v", err)
	}
	cm, _ := m.Concept("Lineitem")
	if cm.Store != SalesStore {
		t.Errorf("Lineitem store = %s", cm.Store)
	}
	cm, _ = m.Concept("Part")
	if cm.Store != CatalogStore {
		t.Errorf("Part store = %s", cm.Store)
	}
}

func TestGenerateMultiStore(t *testing.T) {
	db := storage.NewMemDB()
	sz, err := GenerateMultiStore(db, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Lineitem == 0 {
		t.Error("no lineitems generated")
	}
	if _, ok := db.Table("lineitem"); !ok {
		t.Error("lineitem table missing")
	}
}
