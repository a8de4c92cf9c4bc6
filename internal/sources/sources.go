// Package sources implements Quarry's data-source catalog: the
// physical schemas (datastores, relations, attributes, keys) and basic
// statistics of the systems a data warehouse is populated from. The
// Requirements Interpreter resolves source schema mappings against
// this catalog when synthesising ETL flows, and the ETL cost model
// draws cardinalities and distinct-value counts from it.
package sources

import (
	"fmt"
)

// Attribute is a typed column of a relation.
type Attribute struct {
	Name string
	Type string // "int", "float", "string", "bool"
}

// ForeignKey declares that Columns reference RefColumns of
// RefRelation (same datastore).
type ForeignKey struct {
	Columns     []string
	RefRelation string
	RefColumns  []string
}

// Stats carries optimiser statistics for a relation.
type Stats struct {
	// Rows is the (estimated) cardinality.
	Rows int64
	// Distinct maps column name → number of distinct values; absent
	// columns default to Rows (treated as unique).
	Distinct map[string]int64
}

// Relation is a table of a datastore.
type Relation struct {
	Name        string
	Attributes  []Attribute
	PrimaryKey  []string
	ForeignKeys []ForeignKey
	Stats       Stats

	byName map[string]int
}

// Attribute looks a column up by name.
func (r *Relation) Attribute(name string) (Attribute, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Attribute{}, false
	}
	return r.Attributes[i], true
}

// HasAttribute reports whether the relation has the named column.
func (r *Relation) HasAttribute(name string) bool {
	_, ok := r.byName[name]
	return ok
}

// DistinctValues estimates the number of distinct values in a column:
// the recorded statistic, or the row count when unrecorded.
func (r *Relation) DistinctValues(col string) int64 {
	if d, ok := r.Stats.Distinct[col]; ok && d > 0 {
		return d
	}
	if r.Stats.Rows > 0 {
		return r.Stats.Rows
	}
	return 1
}

// DataStore is a named collection of relations (one source system).
type DataStore struct {
	Name string
	// Kind describes the platform ("relational", "csv", ...); purely
	// informational for the deployers.
	Kind string

	relations map[string]*Relation
	order     []string
}

// Relations returns the store's relations in insertion order.
func (d *DataStore) Relations() []*Relation {
	out := make([]*Relation, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, d.relations[n])
	}
	return out
}

// Relation looks a relation up by name.
func (d *DataStore) Relation(name string) (*Relation, bool) {
	r, ok := d.relations[name]
	return r, ok
}

// Catalog is the root of the source metadata.
type Catalog struct {
	stores map[string]*DataStore
	order  []string
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{stores: map[string]*DataStore{}}
}

// AddStore registers a datastore.
func (c *Catalog) AddStore(name, kind string) (*DataStore, error) {
	if name == "" {
		return nil, fmt.Errorf("sources: empty datastore name")
	}
	if _, dup := c.stores[name]; dup {
		return nil, fmt.Errorf("sources: duplicate datastore %q", name)
	}
	d := &DataStore{Name: name, Kind: kind, relations: map[string]*Relation{}}
	c.stores[name] = d
	c.order = append(c.order, name)
	return d, nil
}

// Store looks a datastore up by name.
func (c *Catalog) Store(name string) (*DataStore, bool) {
	d, ok := c.stores[name]
	return d, ok
}

// Stores returns all datastores in insertion order.
func (c *Catalog) Stores() []*DataStore {
	out := make([]*DataStore, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.stores[n])
	}
	return out
}

// AddRelation registers a relation in a datastore. The relation's
// internal indexes are built here; callers hand over ownership.
func (c *Catalog) AddRelation(store string, r *Relation) error {
	d, ok := c.stores[store]
	if !ok {
		return fmt.Errorf("sources: unknown datastore %q", store)
	}
	if r.Name == "" {
		return fmt.Errorf("sources: empty relation name in datastore %q", store)
	}
	if _, dup := d.relations[r.Name]; dup {
		return fmt.Errorf("sources: duplicate relation %s.%s", store, r.Name)
	}
	r.byName = map[string]int{}
	for i, a := range r.Attributes {
		if _, dup := r.byName[a.Name]; dup {
			return fmt.Errorf("sources: duplicate attribute %s.%s.%s", store, r.Name, a.Name)
		}
		switch a.Type {
		case "int", "float", "string", "bool":
		default:
			return fmt.Errorf("sources: attribute %s.%s.%s has unknown type %q", store, r.Name, a.Name, a.Type)
		}
		r.byName[a.Name] = i
	}
	for _, k := range r.PrimaryKey {
		if !r.HasAttribute(k) {
			return fmt.Errorf("sources: primary key column %q missing in %s.%s", k, store, r.Name)
		}
	}
	d.relations[r.Name] = r
	d.order = append(d.order, r.Name)
	return nil
}

// Validate re-checks referential integrity, including foreign keys
// (which may be declared before their target relation exists).
func (c *Catalog) Validate() error {
	for _, d := range c.Stores() {
		for _, r := range d.Relations() {
			for _, fk := range r.ForeignKeys {
				target, ok := d.relations[fk.RefRelation]
				if !ok {
					return fmt.Errorf("sources: %s.%s references unknown relation %q", d.Name, r.Name, fk.RefRelation)
				}
				if len(fk.Columns) != len(fk.RefColumns) || len(fk.Columns) == 0 {
					return fmt.Errorf("sources: %s.%s has malformed foreign key to %s", d.Name, r.Name, fk.RefRelation)
				}
				for i := range fk.Columns {
					a, ok := r.Attribute(fk.Columns[i])
					if !ok {
						return fmt.Errorf("sources: %s.%s foreign key column %q missing", d.Name, r.Name, fk.Columns[i])
					}
					b, ok := target.Attribute(fk.RefColumns[i])
					if !ok {
						return fmt.Errorf("sources: %s.%s referenced column %s.%q missing", d.Name, r.Name, fk.RefRelation, fk.RefColumns[i])
					}
					if a.Type != b.Type {
						return fmt.Errorf("sources: %s.%s foreign key %q type %s does not match %s.%s type %s",
							d.Name, r.Name, fk.Columns[i], a.Type, fk.RefRelation, fk.RefColumns[i], b.Type)
					}
				}
			}
		}
	}
	return nil
}
