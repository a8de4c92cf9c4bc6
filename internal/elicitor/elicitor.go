// Package elicitor implements the backend of Quarry's Requirements
// Elicitor (§2.1): the component that supports non-expert users in
// expressing analytical needs over a graphical domain ontology. It
// provides the vocabulary search, the analysis-focus ranking, and the
// automatic suggestion of potentially interesting analytical
// perspectives (dimensions, measures, slicers) for a chosen focus —
// e.g. focus Lineitem → suggested dimensions Supplier, Nation, Part —
// plus a guided requirement builder that assembles and validates xRQ
// documents from accepted suggestions.
package elicitor

import (
	"fmt"
	"sort"

	"quarry/internal/mapping"
	"quarry/internal/ontology"
	"quarry/internal/xrq"
)

// Elicitor answers exploration queries over one ontology and its
// source mapping (only mapped elements are suggested — an unmapped
// concept cannot be answered by any generated design).
type Elicitor struct {
	onto *ontology.Ontology
	mapg *mapping.Mapping
}

// New creates an elicitor.
func New(onto *ontology.Ontology, mapg *mapping.Mapping) *Elicitor {
	return &Elicitor{onto: onto, mapg: mapg}
}

// Search finds vocabulary entries matching the query (concepts and
// attributes by ID or business label).
func (e *Elicitor) Search(query string) []string {
	var out []string
	for _, hit := range e.onto.SearchVocabulary(query) {
		if e.isMapped(hit) {
			out = append(out, hit)
		}
	}
	return out
}

func (e *Elicitor) isMapped(id string) bool {
	if c, attr, err := ontology.SplitQualified(id); err == nil {
		cm, ok := e.mapg.Concept(c)
		if !ok {
			return false
		}
		_, ok = cm.Attrs[attr]
		return ok
	}
	_, ok := e.mapg.Concept(id)
	return ok
}

// SuggestFoci ranks the mapped concepts by suitability as analysis
// foci (measure-rich, dimension-rich concepts first).
func (e *Elicitor) SuggestFoci() []ontology.ScoredConcept {
	var out []ontology.ScoredConcept
	for _, sc := range e.onto.FactCandidates() {
		if _, ok := e.mapg.Concept(sc.Concept); ok {
			out = append(out, sc)
		}
	}
	return out
}

// DimensionSuggestion proposes one analytical perspective.
type DimensionSuggestion struct {
	Concept    string
	Attributes []string // qualified descriptor candidates
	Distance   int      // to-one hops from the focus
	Score      float64  // closer and richer perspectives score higher
}

// MeasureSuggestion proposes one numeric attribute as a measure.
type MeasureSuggestion struct {
	Attribute string // qualified
	Type      string
}

// SlicerSuggestion proposes an attribute to slice on.
type SlicerSuggestion struct {
	Attribute string // qualified
	Type      string
	Operators []string
}

// Suggestion is the full result of analysing a focus concept.
type Suggestion struct {
	Focus      string
	Dimensions []DimensionSuggestion
	Measures   []MeasureSuggestion
	Slicers    []SlicerSuggestion
}

// Suggest analyses the relationships of the focus concept in the
// domain ontology and proposes analytical perspectives: every mapped
// concept functionally reachable from the focus becomes a dimension
// candidate, the focus's (and its neighbours') numeric properties
// become measure candidates, and discrete attributes become slicers.
func (e *Elicitor) Suggest(focus string) (*Suggestion, error) {
	c, ok := e.onto.Concept(focus)
	if !ok {
		return nil, fmt.Errorf("elicitor: unknown concept %q", focus)
	}
	if _, ok := e.mapg.Concept(focus); !ok {
		return nil, fmt.Errorf("elicitor: concept %q has no source mapping", focus)
	}
	s := &Suggestion{Focus: focus}
	// Measures: numeric mapped properties of the focus.
	cm, _ := e.mapg.Concept(focus)
	for _, p := range c.NumericProperties() {
		if _, mapped := cm.Attrs[p.Name]; mapped {
			s.Measures = append(s.Measures, MeasureSuggestion{
				Attribute: ontology.Qualify(focus, p.Name), Type: p.Type,
			})
		}
	}
	// Dimensions + slicers from the functional closure.
	for concept, path := range e.onto.ToOneClosure(focus) {
		dcm, mapped := e.mapg.Concept(concept)
		if !mapped {
			continue
		}
		dc, _ := e.onto.Concept(concept)
		var attrs []string
		for _, p := range dc.Properties() {
			if _, ok := dcm.Attrs[p.Name]; !ok {
				continue
			}
			q := ontology.Qualify(concept, p.Name)
			if p.Type == "string" || p.Type == "bool" {
				attrs = append(attrs, q)
				s.Slicers = append(s.Slicers, SlicerSuggestion{
					Attribute: q, Type: p.Type, Operators: []string{"=", "!="},
				})
			} else if concept != focus {
				// Numeric attributes of reachable concepts can still
				// slice by range.
				s.Slicers = append(s.Slicers, SlicerSuggestion{
					Attribute: q, Type: p.Type, Operators: []string{"=", "!=", "<", "<=", ">", ">="},
				})
			}
		}
		if concept == focus || len(attrs) == 0 {
			continue
		}
		s.Dimensions = append(s.Dimensions, DimensionSuggestion{
			Concept:    concept,
			Attributes: attrs,
			Distance:   len(path),
			Score:      float64(len(attrs)) / float64(1+len(path)),
		})
	}
	sort.Slice(s.Dimensions, func(i, j int) bool {
		if s.Dimensions[i].Score != s.Dimensions[j].Score {
			return s.Dimensions[i].Score > s.Dimensions[j].Score
		}
		return s.Dimensions[i].Concept < s.Dimensions[j].Concept
	})
	sort.Slice(s.Slicers, func(i, j int) bool { return s.Slicers[i].Attribute < s.Slicers[j].Attribute })
	return s, nil
}

// Graph is the ontology rendered as a node-link structure for the
// web front-end (the D3 visualisation of Figure 2).
type Graph struct {
	Nodes []GraphNode `json:"nodes"`
	Links []GraphLink `json:"links"`
}

// GraphNode is one concept with its attributes.
type GraphNode struct {
	ID         string   `json:"id"`
	Label      string   `json:"label"`
	Attributes []string `json:"attributes"`
	Mapped     bool     `json:"mapped"`
}

// GraphLink is one object property.
type GraphLink struct {
	Source       string `json:"source"`
	Target       string `json:"target"`
	Property     string `json:"property"`
	Multiplicity string `json:"multiplicity"`
}

// Graph exports the ontology for visualisation.
func (e *Elicitor) Graph() *Graph {
	g := &Graph{}
	for _, c := range e.onto.Concepts() {
		n := GraphNode{ID: c.ID, Label: c.Label}
		for _, p := range c.Properties() {
			n.Attributes = append(n.Attributes, p.Name)
		}
		_, n.Mapped = e.mapg.Concept(c.ID)
		g.Nodes = append(g.Nodes, n)
	}
	for _, p := range e.onto.ObjectProperties() {
		g.Links = append(g.Links, GraphLink{
			Source: p.Domain, Target: p.Range, Property: p.ID, Multiplicity: p.Mult.String(),
		})
	}
	return g
}

// Builder assembles a requirement from accepted suggestions; the
// guided path a non-expert user takes in the UI.
type Builder struct {
	e   *Elicitor
	req *xrq.Requirement
}

// NewRequirement starts a builder.
func (e *Elicitor) NewRequirement(id, name string) *Builder {
	return &Builder{e: e, req: &xrq.Requirement{ID: id, Name: name}}
}

// AddMeasure adds a named measure with an expression over qualified
// attributes.
func (b *Builder) AddMeasure(id, formula string) *Builder {
	b.req.Measures = append(b.req.Measures, xrq.Measure{ID: id, Function: formula})
	return b
}

// AddDimension accepts a dimension suggestion (one qualified
// attribute).
func (b *Builder) AddDimension(qualified string) *Builder {
	b.req.Dimensions = append(b.req.Dimensions, xrq.Dimension{Concept: qualified})
	return b
}

// AddSlicer adds a filter.
func (b *Builder) AddSlicer(qualified, op, value string) *Builder {
	b.req.Slicers = append(b.req.Slicers, xrq.Slicer{Concept: qualified, Operator: op, Value: value})
	return b
}

// Build validates and returns the assembled requirement.
func (b *Builder) Build() (*xrq.Requirement, error) {
	if err := b.req.Validate(b.e.onto); err != nil {
		return nil, err
	}
	return b.req.Clone(), nil
}
