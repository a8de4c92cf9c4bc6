// Package xmd implements Quarry's xMD format: the logical,
// platform-independent representation of a multidimensional (MD)
// schema (§2.5). An xMD document is a constellation: fact tables
// carrying measures, dimensions with hierarchies of levels (connected
// by many-to-one roll-up edges) and descriptors, and the fact→dimension
// usage links.
//
// The package also implements the MD integrity constraints the paper
// requires every design to satisfy (soundness, after [9]): structural
// well-formedness, hierarchy strictness (acyclic roll-ups), and
// numeric measures of a known additivity class. The package writes xMD
// documents (Write, Marshal) and reads none.
package xmd

import (
	"sort"
)

// Additivity classifies a measure for summarizability checking,
// following the survey of Mazón et al. [9].
type Additivity string

// Additivity classes.
const (
	// AdditivityFlow marks fully additive measures (e.g. revenue):
	// summable along every dimension.
	AdditivityFlow Additivity = "flow"
	// AdditivityStock marks semi-additive measures (e.g. inventory
	// level): summable along every dimension except temporal ones.
	AdditivityStock Additivity = "stock"
	// AdditivityUnit marks non-additive, value-per-unit measures
	// (e.g. unit price, percentages): never summable.
	AdditivityUnit Additivity = "value-per-unit"
)

// Measure is a numeric fact attribute.
type Measure struct {
	Name       string
	Type       string // "int" or "float"
	Formula    string // derivation over qualified ontology attributes
	Additivity Additivity
}

// Descriptor is a level attribute.
type Descriptor struct {
	Name string
	Type string
	Attr string // qualified ontology attribute, e.g. "Part.p_name"
}

// Level is one aggregation level of a dimension hierarchy.
type Level struct {
	Name        string
	Concept     string // ontology anchor
	Key         string // descriptor name serving as the level's natural key
	Descriptors []Descriptor
}

// Descriptor looks a descriptor up by name.
func (l *Level) Descriptor(name string) (Descriptor, bool) {
	for _, d := range l.Descriptors {
		if d.Name == name {
			return d, true
		}
	}
	return Descriptor{}, false
}

// Rollup is a many-to-one edge from a finer level to a coarser one.
type Rollup struct {
	From string
	To   string
}

// Dimension is an analysis dimension: a set of levels organised in a
// (possibly branching) roll-up hierarchy.
type Dimension struct {
	Name string
	// Temporal marks time-like dimensions, which restrict stock
	// measures' summarizability.
	Temporal bool
	Levels   []*Level
	Rollups  []Rollup
}

// Level looks a level up by name.
func (d *Dimension) Level(name string) (*Level, bool) {
	for _, l := range d.Levels {
		if l.Name == name {
			return l, true
		}
	}
	return nil, false
}

// BaseLevels returns the finest levels: those no other level rolls up
// into them from below — i.e. levels that never appear as the To of a
// roll-up... base levels are those that are not the target of any
// roll-up arrow, since arrows point finer→coarser.
func (d *Dimension) BaseLevels() []*Level {
	isTarget := map[string]bool{}
	for _, r := range d.Rollups {
		isTarget[r.To] = true
	}
	var out []*Level
	for _, l := range d.Levels {
		if !isTarget[l.Name] {
			out = append(out, l)
		}
	}
	return out
}

// RollsUpTo reports whether from reaches to through the transitive
// closure of roll-up edges (reflexive).
func (d *Dimension) RollsUpTo(from, to string) bool {
	if from == to {
		return true
	}
	adj := map[string][]string{}
	for _, r := range d.Rollups {
		adj[r.From] = append(adj[r.From], r.To)
	}
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nxt := range adj[cur] {
			if nxt == to {
				return true
			}
			if !seen[nxt] {
				seen[nxt] = true
				queue = append(queue, nxt)
			}
		}
	}
	return false
}

// DimensionUse links a fact to a dimension at a base level.
type DimensionUse struct {
	Dimension string
	Level     string
}

// Fact is a fact table: measures plus dimension usages.
type Fact struct {
	Name     string
	Concept  string // ontology anchor of the subject of analysis
	Measures []Measure
	Uses     []DimensionUse
}

// Measure looks a measure up by name.
func (f *Fact) Measure(name string) (Measure, bool) {
	for _, m := range f.Measures {
		if m.Name == name {
			return m, true
		}
	}
	return Measure{}, false
}

// UsesDimension reports whether the fact links to the dimension.
func (f *Fact) UsesDimension(dim string) bool {
	for _, u := range f.Uses {
		if u.Dimension == dim {
			return true
		}
	}
	return false
}

// Schema is a full MD schema (star or constellation).
type Schema struct {
	Name       string
	Facts      []*Fact
	Dimensions []*Dimension
}

// Fact looks a fact up by name.
func (s *Schema) Fact(name string) (*Fact, bool) {
	for _, f := range s.Facts {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// Dimension looks a dimension up by name.
func (s *Schema) Dimension(name string) (*Dimension, bool) {
	for _, d := range s.Dimensions {
		if d.Name == name {
			return d, true
		}
	}
	return nil, false
}

// SharedDimensions returns the names of dimensions used by more than
// one fact — the conformed dimensions of the constellation.
func (s *Schema) SharedDimensions() []string {
	count := map[string]int{}
	for _, f := range s.Facts {
		seen := map[string]bool{}
		for _, u := range f.Uses {
			if !seen[u.Dimension] {
				seen[u.Dimension] = true
				count[u.Dimension]++
			}
		}
	}
	var out []string
	for d, c := range count {
		if c > 1 {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the schema; the integrators mutate
// copies, never their inputs.
func (s *Schema) Clone() *Schema {
	cp := &Schema{Name: s.Name}
	for _, f := range s.Facts {
		nf := &Fact{Name: f.Name, Concept: f.Concept}
		nf.Measures = append([]Measure(nil), f.Measures...)
		nf.Uses = append([]DimensionUse(nil), f.Uses...)
		cp.Facts = append(cp.Facts, nf)
	}
	for _, d := range s.Dimensions {
		nd := &Dimension{Name: d.Name, Temporal: d.Temporal}
		for _, l := range d.Levels {
			nl := &Level{Name: l.Name, Concept: l.Concept, Key: l.Key}
			nl.Descriptors = append([]Descriptor(nil), l.Descriptors...)
			nd.Levels = append(nd.Levels, nl)
		}
		nd.Rollups = append([]Rollup(nil), d.Rollups...)
		cp.Dimensions = append(cp.Dimensions, nd)
	}
	return cp
}

// Stats summarises schema size for the structural-complexity cost
// model.
type Stats struct {
	Facts       int
	Dimensions  int
	Levels      int
	Descriptors int
	Rollups     int
	Measures    int
	Uses        int
	SharedDims  int
}

// Stats computes size statistics.
func (s *Schema) Stats() Stats {
	st := Stats{Facts: len(s.Facts), Dimensions: len(s.Dimensions), SharedDims: len(s.SharedDimensions())}
	for _, f := range s.Facts {
		st.Measures += len(f.Measures)
		st.Uses += len(f.Uses)
	}
	for _, d := range s.Dimensions {
		st.Levels += len(d.Levels)
		st.Rollups += len(d.Rollups)
		for _, l := range d.Levels {
			st.Descriptors += len(l.Descriptors)
		}
	}
	return st
}
