// Package xrq implements Quarry's xRQ format: the logical,
// platform-independent representation of an information requirement
// (§2.5). An xRQ document is an analytical query following the MD
// model — a cube with a subject of analysis (measures), analysis
// dimensions, slicers, and per-dimension aggregations — phrased
// entirely in ontology vocabulary ("Part.p_name", "Nation.n_name"),
// never in physical schema terms.
package xrq

import (
	"fmt"
	"strings"

	"quarry/internal/expr"
	"quarry/internal/ontology"
)

// AggFunc is a normalised aggregation function name.
type AggFunc string

// Supported aggregation functions.
const (
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
	AggCount AggFunc = "COUNT"
)

// ParseAggFunc normalises an aggregation function name; it accepts
// the long spellings used in the paper's snippets ("AVERAGE").
func ParseAggFunc(s string) (AggFunc, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "SUM":
		return AggSum, nil
	case "AVG", "AVERAGE", "MEAN":
		return AggAvg, nil
	case "MIN", "MINIMUM":
		return AggMin, nil
	case "MAX", "MAXIMUM":
		return AggMax, nil
	case "COUNT", "CNT":
		return AggCount, nil
	default:
		return "", fmt.Errorf("xrq: unknown aggregation function %q", s)
	}
}

// Dimension references a qualified ontology attribute to analyse by,
// e.g. "Part.p_name".
type Dimension struct {
	Concept string
}

// Measure is a named numeric expression over qualified ontology
// attributes, e.g. revenue = Lineitem.l_extendedprice * (1 -
// Lineitem.l_discount).
type Measure struct {
	ID       string
	Function string // expression source text
}

// Expr parses the measure formula.
func (m Measure) Expr() (expr.Node, error) {
	n, err := expr.Parse(m.Function)
	if err != nil {
		return nil, fmt.Errorf("xrq: measure %q: %w", m.ID, err)
	}
	return n, nil
}

// Slicer restricts the analysed data: attribute ⋈ literal.
type Slicer struct {
	Concept  string // qualified attribute, e.g. "Nation.n_name"
	Operator string // =, !=, <>, <, <=, >, >=
	Value    string // literal text; strings need no quoting here
}

// Predicate builds the slicer's expression against the attribute's
// declared type (string-typed attributes compare against the raw
// value text; numeric ones parse it).
func (s Slicer) Predicate(attrType string) (expr.Node, error) {
	var lit expr.Node
	switch attrType {
	case "string":
		lit = &expr.Literal{Val: expr.Str(s.Value)}
	case "bool":
		switch strings.ToLower(s.Value) {
		case "true":
			lit = &expr.Literal{Val: expr.Bool(true)}
		case "false":
			lit = &expr.Literal{Val: expr.Bool(false)}
		default:
			return nil, fmt.Errorf("xrq: slicer on %s: bad bool literal %q", s.Concept, s.Value)
		}
	default: // numeric
		n, err := expr.Parse(s.Value)
		if err != nil {
			return nil, fmt.Errorf("xrq: slicer on %s: %w", s.Concept, err)
		}
		if _, isLit := n.(*expr.Literal); !isLit {
			if _, isNeg := n.(*expr.Unary); !isNeg {
				return nil, fmt.Errorf("xrq: slicer on %s: value %q is not a literal", s.Concept, s.Value)
			}
		}
		lit = n
	}
	return expr.CompareOp(s.Operator, &expr.Ident{Name: s.Concept}, lit)
}

// Aggregation says how one measure is aggregated along one dimension.
type Aggregation struct {
	Order     int
	Dimension string // Dimension.Concept reference
	Measure   string // Measure.ID reference
	Function  AggFunc
}

// Requirement is a parsed xRQ document.
type Requirement struct {
	ID         string
	Name       string
	Dimensions []Dimension
	Measures   []Measure
	Slicers    []Slicer
	Aggs       []Aggregation
}

// Validate checks the requirement's internal consistency and its
// well-formedness against the domain ontology:
//
//   - every referenced qualified attribute resolves in the ontology;
//   - measure formulas are numeric expressions over numeric attributes;
//   - slicer operators fit the sliced attribute's type;
//   - aggregations reference declared dimensions and measures;
//   - at least one measure and one dimension are present.
func (r *Requirement) Validate(onto *ontology.Ontology) error {
	if r.ID == "" {
		return fmt.Errorf("xrq: requirement has no id")
	}
	if len(r.Measures) == 0 {
		return fmt.Errorf("xrq: requirement %q has no measures", r.ID)
	}
	if len(r.Dimensions) == 0 {
		return fmt.Errorf("xrq: requirement %q has no dimensions", r.ID)
	}
	seenDim := map[string]bool{}
	for _, d := range r.Dimensions {
		if seenDim[d.Concept] {
			return fmt.Errorf("xrq: requirement %q repeats dimension %q", r.ID, d.Concept)
		}
		seenDim[d.Concept] = true
		if _, _, err := onto.ResolveQualified(d.Concept); err != nil {
			return fmt.Errorf("xrq: requirement %q dimension: %w", r.ID, err)
		}
	}
	sch := ontologySchema(onto)
	seenMeasure := map[string]bool{}
	for _, m := range r.Measures {
		if m.ID == "" {
			return fmt.Errorf("xrq: requirement %q has an unnamed measure", r.ID)
		}
		if seenMeasure[m.ID] {
			return fmt.Errorf("xrq: requirement %q repeats measure %q", r.ID, m.ID)
		}
		seenMeasure[m.ID] = true
		n, err := m.Expr()
		if err != nil {
			return err
		}
		k, err := expr.Infer(n, sch)
		if err != nil {
			return fmt.Errorf("xrq: requirement %q measure %q: %w", r.ID, m.ID, err)
		}
		if k != expr.KindInt && k != expr.KindFloat {
			return fmt.Errorf("xrq: requirement %q measure %q is %s, want numeric", r.ID, m.ID, k)
		}
	}
	for _, s := range r.Slicers {
		_, p, err := onto.ResolveQualified(s.Concept)
		if err != nil {
			return fmt.Errorf("xrq: requirement %q slicer: %w", r.ID, err)
		}
		pred, err := s.Predicate(p.Type)
		if err != nil {
			return err
		}
		if err := expr.CheckPredicate(pred, sch); err != nil {
			return fmt.Errorf("xrq: requirement %q slicer on %s: %w", r.ID, s.Concept, err)
		}
	}
	for _, a := range r.Aggs {
		if !seenDim[a.Dimension] {
			return fmt.Errorf("xrq: requirement %q aggregation references unknown dimension %q", r.ID, a.Dimension)
		}
		if !seenMeasure[a.Measure] {
			return fmt.Errorf("xrq: requirement %q aggregation references unknown measure %q", r.ID, a.Measure)
		}
		if _, err := ParseAggFunc(string(a.Function)); err != nil {
			return fmt.Errorf("xrq: requirement %q: %w", r.ID, err)
		}
	}
	return nil
}

// ontologySchema adapts ontology attribute types to an expr.Schema
// over qualified identifiers.
func ontologySchema(onto *ontology.Ontology) expr.Schema {
	return func(name string) (expr.Kind, bool) {
		_, p, err := onto.ResolveQualified(name)
		if err != nil {
			return expr.KindNull, false
		}
		k, err := expr.ParseKind(p.Type)
		if err != nil {
			return expr.KindNull, false
		}
		return k, true
	}
}

// Clone returns a deep copy of the requirement.
func (r *Requirement) Clone() *Requirement {
	cp := &Requirement{ID: r.ID, Name: r.Name}
	cp.Dimensions = append([]Dimension(nil), r.Dimensions...)
	cp.Measures = append([]Measure(nil), r.Measures...)
	cp.Slicers = append([]Slicer(nil), r.Slicers...)
	cp.Aggs = append([]Aggregation(nil), r.Aggs...)
	return cp
}
