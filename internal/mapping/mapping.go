// Package mapping implements Quarry's source schema mappings: the
// bridge between the domain ontology (business vocabulary) and the
// physical source schemas in the catalog (§2.5). A mapping binds each
// ontology concept to a relation (with an attribute correspondence)
// and each object property to the join specification that realises it
// over the source relations.
//
// The Requirements Interpreter composes these bindings to turn
// ontology-level information requirements into executable ETL flows;
// the MD Schema Integrator uses the shared ontology anchors to match
// concepts across partial designs originating in diverse sources.
package mapping

import (
	"fmt"

	"quarry/internal/ontology"
	"quarry/internal/sources"
)

// ConceptMapping binds an ontology concept to a source relation.
type ConceptMapping struct {
	Concept  string // ontology concept ID
	Store    string // datastore name
	Relation string // relation name
	// Attrs maps ontology datatype-property names to relation column
	// names.
	Attrs map[string]string
	// Key lists the relation columns identifying one concept instance
	// (typically the relation's primary key).
	Key []string
}

// PropertyMapping realises an ontology object property as an
// equi-join between the domain concept's relation and the range
// concept's relation.
type PropertyMapping struct {
	Property   string // ontology object property ID
	DomainCols []string
	RangeCols  []string
}

// Mapping is a full source schema mapping for one ontology over one
// catalog.
type Mapping struct {
	Name string

	concepts map[string]*ConceptMapping
	props    map[string]*PropertyMapping
}

// New creates an empty mapping.
func New(name string) *Mapping {
	return &Mapping{
		Name:     name,
		concepts: map[string]*ConceptMapping{},
		props:    map[string]*PropertyMapping{},
	}
}

// MapConcept registers a concept binding.
func (m *Mapping) MapConcept(cm ConceptMapping) error {
	if cm.Concept == "" {
		return fmt.Errorf("mapping: empty concept")
	}
	if _, dup := m.concepts[cm.Concept]; dup {
		return fmt.Errorf("mapping: concept %q mapped twice", cm.Concept)
	}
	if len(cm.Key) == 0 {
		return fmt.Errorf("mapping: concept %q has no key columns", cm.Concept)
	}
	cp := cm
	cp.Attrs = map[string]string{}
	for k, v := range cm.Attrs {
		cp.Attrs[k] = v
	}
	cp.Key = append([]string(nil), cm.Key...)
	m.concepts[cm.Concept] = &cp
	return nil
}

// MapProperty registers an object-property join binding.
func (m *Mapping) MapProperty(pm PropertyMapping) error {
	if pm.Property == "" {
		return fmt.Errorf("mapping: empty property")
	}
	if _, dup := m.props[pm.Property]; dup {
		return fmt.Errorf("mapping: property %q mapped twice", pm.Property)
	}
	if len(pm.DomainCols) == 0 || len(pm.DomainCols) != len(pm.RangeCols) {
		return fmt.Errorf("mapping: property %q has mismatched join columns", pm.Property)
	}
	cp := pm
	cp.DomainCols = append([]string(nil), pm.DomainCols...)
	cp.RangeCols = append([]string(nil), pm.RangeCols...)
	m.props[pm.Property] = &cp
	return nil
}

// Concept returns the binding for a concept.
func (m *Mapping) Concept(id string) (*ConceptMapping, bool) {
	c, ok := m.concepts[id]
	return c, ok
}

// Property returns the binding for an object property.
func (m *Mapping) Property(id string) (*PropertyMapping, bool) {
	p, ok := m.props[id]
	return p, ok
}

// Column resolves a qualified ontology attribute ("Concept.attr") to
// its physical column name.
func (m *Mapping) Column(qualified string) (store, relation, column string, err error) {
	cid, attr, err := ontology.SplitQualified(qualified)
	if err != nil {
		return "", "", "", err
	}
	cm, ok := m.concepts[cid]
	if !ok {
		return "", "", "", fmt.Errorf("mapping: concept %q is not mapped", cid)
	}
	col, ok := cm.Attrs[attr]
	if !ok {
		return "", "", "", fmt.Errorf("mapping: attribute %q of concept %q is not mapped", attr, cid)
	}
	return cm.Store, cm.Relation, col, nil
}

// Validate cross-checks the mapping against the ontology and the
// catalog: every binding must reference existing ontology elements and
// existing physical columns with compatible types.
func (m *Mapping) Validate(onto *ontology.Ontology, cat *sources.Catalog) error {
	for id, cm := range m.concepts {
		concept, ok := onto.Concept(id)
		if !ok {
			return fmt.Errorf("mapping: unknown ontology concept %q", id)
		}
		store, ok := cat.Store(cm.Store)
		if !ok {
			return fmt.Errorf("mapping: concept %q references unknown datastore %q", id, cm.Store)
		}
		rel, ok := store.Relation(cm.Relation)
		if !ok {
			return fmt.Errorf("mapping: concept %q references unknown relation %s.%s", id, cm.Store, cm.Relation)
		}
		for propName, col := range cm.Attrs {
			p, ok := concept.Property(propName)
			if !ok {
				return fmt.Errorf("mapping: concept %q maps unknown property %q", id, propName)
			}
			a, ok := rel.Attribute(col)
			if !ok {
				return fmt.Errorf("mapping: concept %q maps %q to missing column %s.%s.%s", id, propName, cm.Store, cm.Relation, col)
			}
			if !typesCompatible(p.Type, a.Type) {
				return fmt.Errorf("mapping: concept %q property %q has type %s but column %s has type %s",
					id, propName, p.Type, col, a.Type)
			}
		}
		for _, k := range cm.Key {
			if !rel.HasAttribute(k) {
				return fmt.Errorf("mapping: concept %q key column %q missing in %s.%s", id, k, cm.Store, cm.Relation)
			}
		}
	}
	for id, pm := range m.props {
		op, ok := onto.ObjectProperty(id)
		if !ok {
			return fmt.Errorf("mapping: unknown object property %q", id)
		}
		dom, ok := m.concepts[op.Domain]
		if !ok {
			return fmt.Errorf("mapping: property %q requires mapped domain concept %q", id, op.Domain)
		}
		rng, ok := m.concepts[op.Range]
		if !ok {
			return fmt.Errorf("mapping: property %q requires mapped range concept %q", id, op.Range)
		}
		domStore, _ := cat.Store(dom.Store)
		rngStore, _ := cat.Store(rng.Store)
		if domStore == nil || rngStore == nil {
			return fmt.Errorf("mapping: property %q references unmapped stores", id)
		}
		domRel, ok := domStore.Relation(dom.Relation)
		if !ok {
			return fmt.Errorf("mapping: property %q domain relation missing", id)
		}
		rngRel, ok := rngStore.Relation(rng.Relation)
		if !ok {
			return fmt.Errorf("mapping: property %q range relation missing", id)
		}
		for i := range pm.DomainCols {
			a, ok := domRel.Attribute(pm.DomainCols[i])
			if !ok {
				return fmt.Errorf("mapping: property %q domain column %q missing", id, pm.DomainCols[i])
			}
			b, ok := rngRel.Attribute(pm.RangeCols[i])
			if !ok {
				return fmt.Errorf("mapping: property %q range column %q missing", id, pm.RangeCols[i])
			}
			if a.Type != b.Type {
				return fmt.Errorf("mapping: property %q joins %s(%s) with %s(%s)",
					id, pm.DomainCols[i], a.Type, pm.RangeCols[i], b.Type)
			}
		}
	}
	return nil
}

// typesCompatible allows int columns to back float ontology properties
// (safe widening) in addition to exact matches.
func typesCompatible(ontoType, colType string) bool {
	if ontoType == colType {
		return true
	}
	return ontoType == "float" && colType == "int"
}
