// Package ontology implements Quarry's domain ontologies: the shared
// vocabulary that captures the semantics of the underlying data
// sources (§2.5 of the paper). An ontology is a labelled graph of
// concepts (classes) carrying typed datatype properties (attributes),
// connected by object properties (associations) annotated with
// multiplicities, plus a subclass taxonomy.
//
// The Requirements Elicitor explores this graph to suggest analytical
// perspectives; the Requirements Interpreter uses to-one paths to
// validate multidimensional (MD) integrity of requirements and to
// derive dimension hierarchies; the Design Integrator matches MD
// concepts across partial designs through their ontology anchors.
package ontology

import (
	"fmt"
	"sort"
	"strings"
)

// Multiplicity annotates an object property domain→range.
type Multiplicity int

// Multiplicities. ManyToOne means many domain instances map to one
// range instance — the "functional" direction MD dimensions need.
const (
	OneToOne Multiplicity = iota
	ManyToOne
	OneToMany
	ManyToMany
)

// String returns the canonical dash-separated name.
func (m Multiplicity) String() string {
	switch m {
	case OneToOne:
		return "one-to-one"
	case ManyToOne:
		return "many-to-one"
	case OneToMany:
		return "one-to-many"
	case ManyToMany:
		return "many-to-many"
	default:
		return fmt.Sprintf("multiplicity(%d)", int(m))
	}
}

// ParseMultiplicity parses the dash-separated form.
func ParseMultiplicity(s string) (Multiplicity, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "one-to-one", "1-1":
		return OneToOne, nil
	case "many-to-one", "n-1":
		return ManyToOne, nil
	case "one-to-many", "1-n":
		return OneToMany, nil
	case "many-to-many", "n-n", "n-m":
		return ManyToMany, nil
	default:
		return 0, fmt.Errorf("ontology: unknown multiplicity %q", s)
	}
}

// DatatypeProperty is a typed attribute of a concept.
type DatatypeProperty struct {
	Name string // local name, e.g. "l_extendedprice"
	Type string // "int", "float", "string", "bool"
	// Label is an optional business-vocabulary label for non-expert
	// users ("extended price").
	Label string
}

// IsNumeric reports whether the property can serve as a measure.
func (p DatatypeProperty) IsNumeric() bool {
	return p.Type == "int" || p.Type == "float"
}

// Concept is an ontology class.
type Concept struct {
	ID     string // e.g. "Lineitem"
	Label  string // business label, e.g. "Line Item"
	props  []DatatypeProperty
	byName map[string]int
}

// Properties returns the concept's datatype properties in insertion
// order.
func (c *Concept) Properties() []DatatypeProperty {
	out := make([]DatatypeProperty, len(c.props))
	copy(out, c.props)
	return out
}

// Property looks a datatype property up by local name.
func (c *Concept) Property(name string) (DatatypeProperty, bool) {
	i, ok := c.byName[name]
	if !ok {
		return DatatypeProperty{}, false
	}
	return c.props[i], true
}

// NumericProperties returns the properties usable as measures.
func (c *Concept) NumericProperties() []DatatypeProperty {
	var out []DatatypeProperty
	for _, p := range c.props {
		if p.IsNumeric() {
			out = append(out, p)
		}
	}
	return out
}

// ObjectProperty is a directed association between two concepts.
type ObjectProperty struct {
	ID     string // e.g. "lineitem_orders"
	Label  string
	Domain string // concept ID
	Range  string // concept ID
	Mult   Multiplicity
}

// Ontology is the domain ontology graph. It is not safe for
// concurrent mutation; build it fully, then share it read-only.
type Ontology struct {
	Name string

	concepts map[string]*Concept
	order    []string // concept insertion order
	objProps map[string]*ObjectProperty
	opOrder  []string
	byDomain map[string][]*ObjectProperty
	byRange  map[string][]*ObjectProperty
	parent   map[string]string // subclass: child -> parent
}

// New creates an empty ontology.
func New(name string) *Ontology {
	return &Ontology{
		Name:     name,
		concepts: map[string]*Concept{},
		objProps: map[string]*ObjectProperty{},
		byDomain: map[string][]*ObjectProperty{},
		byRange:  map[string][]*ObjectProperty{},
		parent:   map[string]string{},
	}
}

// AddConcept registers a concept. The ID must be unique and must not
// contain '.', which separates concept from attribute in qualified
// identifiers.
func (o *Ontology) AddConcept(id, label string) (*Concept, error) {
	if id == "" {
		return nil, fmt.Errorf("ontology: empty concept id")
	}
	if strings.Contains(id, ".") {
		return nil, fmt.Errorf("ontology: concept id %q must not contain '.'", id)
	}
	if _, dup := o.concepts[id]; dup {
		return nil, fmt.Errorf("ontology: duplicate concept %q", id)
	}
	c := &Concept{ID: id, Label: label, byName: map[string]int{}}
	o.concepts[id] = c
	o.order = append(o.order, id)
	return c, nil
}

// AddProperty attaches a datatype property to a concept.
func (o *Ontology) AddProperty(conceptID, name, typ, label string) error {
	c, ok := o.concepts[conceptID]
	if !ok {
		return fmt.Errorf("ontology: unknown concept %q", conceptID)
	}
	switch typ {
	case "int", "float", "string", "bool":
	default:
		return fmt.Errorf("ontology: property %s.%s has unknown type %q", conceptID, name, typ)
	}
	if _, dup := c.byName[name]; dup {
		return fmt.Errorf("ontology: duplicate property %s.%s", conceptID, name)
	}
	c.byName[name] = len(c.props)
	c.props = append(c.props, DatatypeProperty{Name: name, Type: typ, Label: label})
	return nil
}

// AddObjectProperty registers a directed association.
func (o *Ontology) AddObjectProperty(id, label, domain, rng string, m Multiplicity) error {
	if _, dup := o.objProps[id]; dup {
		return fmt.Errorf("ontology: duplicate object property %q", id)
	}
	if _, ok := o.concepts[domain]; !ok {
		return fmt.Errorf("ontology: object property %q has unknown domain %q", id, domain)
	}
	if _, ok := o.concepts[rng]; !ok {
		return fmt.Errorf("ontology: object property %q has unknown range %q", id, rng)
	}
	p := &ObjectProperty{ID: id, Label: label, Domain: domain, Range: rng, Mult: m}
	o.objProps[id] = p
	o.opOrder = append(o.opOrder, id)
	o.byDomain[domain] = append(o.byDomain[domain], p)
	o.byRange[rng] = append(o.byRange[rng], p)
	return nil
}

// SetSubclass records child ⊑ parent in the taxonomy.
func (o *Ontology) SetSubclass(child, parent string) error {
	if _, ok := o.concepts[child]; !ok {
		return fmt.Errorf("ontology: unknown concept %q", child)
	}
	if _, ok := o.concepts[parent]; !ok {
		return fmt.Errorf("ontology: unknown concept %q", parent)
	}
	if child == parent {
		return fmt.Errorf("ontology: %q cannot subclass itself", child)
	}
	o.parent[child] = parent
	// Reject cycles right away.
	seen := map[string]bool{child: true}
	for cur := parent; cur != ""; cur = o.parent[cur] {
		if seen[cur] {
			delete(o.parent, child)
			return fmt.Errorf("ontology: subclass cycle through %q", cur)
		}
		seen[cur] = true
	}
	return nil
}

// Concept returns the concept by ID.
func (o *Ontology) Concept(id string) (*Concept, bool) {
	c, ok := o.concepts[id]
	return c, ok
}

// Concepts returns all concepts in insertion order.
func (o *Ontology) Concepts() []*Concept {
	out := make([]*Concept, 0, len(o.order))
	for _, id := range o.order {
		out = append(out, o.concepts[id])
	}
	return out
}

// ObjectProperty returns an association by ID.
func (o *Ontology) ObjectProperty(id string) (*ObjectProperty, bool) {
	p, ok := o.objProps[id]
	return p, ok
}

// ObjectProperties returns all associations in insertion order.
func (o *Ontology) ObjectProperties() []*ObjectProperty {
	out := make([]*ObjectProperty, 0, len(o.opOrder))
	for _, id := range o.opOrder {
		out = append(out, o.objProps[id])
	}
	return out
}

// Parent returns the direct superclass of a concept, if any.
func (o *Ontology) Parent(conceptID string) (string, bool) {
	p, ok := o.parent[conceptID]
	return p, ok
}

// IsSubclassOf reports whether child ⊑ ancestor (reflexive).
func (o *Ontology) IsSubclassOf(child, ancestor string) bool {
	for cur := child; cur != ""; {
		if cur == ancestor {
			return true
		}
		next, ok := o.parent[cur]
		if !ok {
			return false
		}
		cur = next
	}
	return false
}

// Qualify builds the qualified attribute identifier used across
// Quarry formats: "Concept.attribute".
func Qualify(conceptID, attr string) string { return conceptID + "." + attr }

// SplitQualified splits a qualified identifier into concept and
// attribute. It fails when there is no dot.
func SplitQualified(q string) (concept, attr string, err error) {
	i := strings.IndexByte(q, '.')
	if i <= 0 || i == len(q)-1 {
		return "", "", fmt.Errorf("ontology: %q is not a qualified Concept.attribute identifier", q)
	}
	return q[:i], q[i+1:], nil
}

// ResolveQualified resolves a qualified identifier to its concept and
// datatype property.
func (o *Ontology) ResolveQualified(q string) (*Concept, DatatypeProperty, error) {
	cid, attr, err := SplitQualified(q)
	if err != nil {
		return nil, DatatypeProperty{}, err
	}
	c, ok := o.concepts[cid]
	if !ok {
		return nil, DatatypeProperty{}, fmt.Errorf("ontology: unknown concept %q in %q", cid, q)
	}
	p, ok := c.Property(attr)
	if !ok {
		return nil, DatatypeProperty{}, fmt.Errorf("ontology: concept %q has no property %q", cid, attr)
	}
	return c, p, nil
}

// Validate checks referential integrity of the whole graph. Building
// through the Add* methods already maintains these invariants; this
// re-verifies them after external deserialisation.
func (o *Ontology) Validate() error {
	for _, id := range o.order {
		c := o.concepts[id]
		if c == nil {
			return fmt.Errorf("ontology: nil concept %q", id)
		}
		seen := map[string]bool{}
		for _, p := range c.props {
			if seen[p.Name] {
				return fmt.Errorf("ontology: duplicate property %s.%s", id, p.Name)
			}
			seen[p.Name] = true
		}
	}
	for _, p := range o.objProps {
		if _, ok := o.concepts[p.Domain]; !ok {
			return fmt.Errorf("ontology: property %q references unknown domain %q", p.ID, p.Domain)
		}
		if _, ok := o.concepts[p.Range]; !ok {
			return fmt.Errorf("ontology: property %q references unknown range %q", p.ID, p.Range)
		}
	}
	for child := range o.parent {
		seen := map[string]bool{}
		for cur := child; cur != ""; cur = o.parent[cur] {
			if seen[cur] {
				return fmt.Errorf("ontology: subclass cycle through %q", cur)
			}
			seen[cur] = true
		}
	}
	return nil
}

// Stats summarises the ontology size; used by the elicitor benches.
type Stats struct {
	Concepts         int
	DatatypeProps    int
	ObjectProperties int
	SubclassEdges    int
}

// Stats computes size statistics.
func (o *Ontology) Stats() Stats {
	s := Stats{
		Concepts:         len(o.concepts),
		ObjectProperties: len(o.objProps),
		SubclassEdges:    len(o.parent),
	}
	for _, c := range o.concepts {
		s.DatatypeProps += len(c.props)
	}
	return s
}

// SearchVocabulary returns concept and property identifiers whose ID
// or business label contains the query, case-insensitively; the
// elicitor's vocabulary search box. Results are sorted.
func (o *Ontology) SearchVocabulary(query string) []string {
	q := strings.ToLower(query)
	var out []string
	match := func(id, label string) bool {
		return strings.Contains(strings.ToLower(id), q) ||
			(label != "" && strings.Contains(strings.ToLower(label), q))
	}
	for _, c := range o.Concepts() {
		if match(c.ID, c.Label) {
			out = append(out, c.ID)
		}
		for _, p := range c.props {
			if match(p.Name, p.Label) {
				out = append(out, Qualify(c.ID, p.Name))
			}
		}
	}
	sort.Strings(out)
	return out
}
