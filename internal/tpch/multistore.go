package tpch

import (
	"quarry/internal/mapping"
	"quarry/internal/sources"
	"quarry/internal/storage"
)

// The multi-store variant splits TPC-H across two source systems —
// an operational "sales" store (customer/orders/lineitem) and a
// "catalog" store (part/supplier/partsupp/nation/region) — exercising
// the paper's claim that Quarry integrates "new information
// requirements spanning diverse data sources" through the shared
// domain ontology. The ontology is unchanged; only the catalog and
// the mapping differ.

// SalesStore and CatalogStore are the datastore names of the
// multi-store variant.
const (
	SalesStore   = "sales"
	CatalogStore = "catalog"
)

// storeOf assigns each relation to its store in the multi-store
// variant.
func storeOf(relation string) string {
	switch relation {
	case "customer", "orders", "lineitem":
		return SalesStore
	default:
		return CatalogStore
	}
}

// MultiStoreCatalog builds the two-datastore TPC-H catalog.
func MultiStoreCatalog(sf float64) (*sources.Catalog, error) {
	single, err := Catalog(sf)
	if err != nil {
		return nil, err
	}
	src, _ := single.Store(StoreName)
	c := sources.NewCatalog()
	if _, err := c.AddStore(SalesStore, "relational"); err != nil {
		return nil, err
	}
	if _, err := c.AddStore(CatalogStore, "relational"); err != nil {
		return nil, err
	}
	for _, rel := range src.Relations() {
		cp := &sources.Relation{
			Name:       rel.Name,
			Attributes: rel.Attributes,
			PrimaryKey: rel.PrimaryKey,
			Stats:      rel.Stats,
		}
		// Foreign keys are only kept when the target lives in the
		// same store; cross-store links are carried by the ontology's
		// object-property mappings instead.
		for _, fk := range rel.ForeignKeys {
			if storeOf(fk.RefRelation) == storeOf(rel.Name) {
				cp.ForeignKeys = append(cp.ForeignKeys, fk)
			}
		}
		if err := c.AddRelation(storeOf(rel.Name), cp); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MultiStoreMapping rebinds the TPC-H ontology to the two stores.
func MultiStoreMapping() (*mapping.Mapping, error) {
	return mappingOver("tpch-multistore", storeOf)
}

// GenerateMultiStore populates the database for the multi-store
// variant. Table names are store-unique across TPC-H, so both stores
// share one physical database, exactly like the single-store
// generator — the distinction lives in the catalog and mapping
// metadata the interpreter consumes.
func GenerateMultiStore(db *storage.DB, sf float64, seed int64) (Sizes, error) {
	return Generate(db, sf, seed)
}
