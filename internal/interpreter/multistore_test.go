package interpreter

import (
	"testing"

	"quarry/internal/engine"
	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// TestCrossStoreRequirement verifies the paper's "requirements
// spanning diverse data sources" claim: the revenue requirement
// touches the sales store (lineitem) and the catalog store
// (partsupp/supplier/nation/part); the interpreter stitches one flow
// across both through the shared ontology, and it executes.
func TestCrossStoreRequirement(t *testing.T) {
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.MultiStoreMapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.MultiStoreCatalog(2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(o, m, c)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := in.Interpret(tpch.RevenueRequirement())
	if err != nil {
		t.Fatal(err)
	}
	// The flow draws from both stores.
	stores := map[string]bool{}
	for _, n := range pd.ETL.Nodes() {
		if s := n.Param("store"); s != "" {
			stores[s] = true
		}
	}
	if !stores[tpch.SalesStore] || !stores[tpch.CatalogStore] {
		t.Fatalf("flow stores = %v, want both", stores)
	}
	// And executes end to end.
	db := storage.NewMemDB()
	if _, err := tpch.GenerateMultiStore(db, 2, 42); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pd.ETL, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded["fact_table_revenue"] == 0 {
		t.Error("cross-store flow loaded nothing")
	}
}
