package ontology

import "sort"

// Step is one hop along a path of object properties. Reverse marks a
// hop that traverses the property against its declared direction
// (from range to domain).
type Step struct {
	Prop    *ObjectProperty
	From    string
	To      string
	Reverse bool
}

// ToOne reports whether this hop is functional: each instance of From
// determines at most one instance of To. That is the MD-critical
// direction — dimensions must be reachable from facts via to-one
// paths for summarizability (strictness).
func (s Step) ToOne() bool {
	if !s.Reverse {
		return s.Prop.Mult == ManyToOne || s.Prop.Mult == OneToOne
	}
	return s.Prop.Mult == OneToMany || s.Prop.Mult == OneToOne
}

// Path is a sequence of steps; steps[i].To == steps[i+1].From.
type Path []Step

// toOneNeighbors enumerates the functional hops available from a
// concept, in deterministic order.
func (o *Ontology) toOneNeighbors(conceptID string) []Step {
	var out []Step
	for _, p := range o.byDomain[conceptID] {
		s := Step{Prop: p, From: conceptID, To: p.Range, Reverse: false}
		if s.ToOne() {
			out = append(out, s)
		}
	}
	for _, p := range o.byRange[conceptID] {
		s := Step{Prop: p, From: conceptID, To: p.Domain, Reverse: true}
		if s.ToOne() {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Prop.ID < out[j].Prop.ID
	})
	return out
}

// ShortestToOnePath returns the shortest functional path from→to
// (BFS), or nil when none exists. A nil path with ok==true is
// returned when from==to (the empty path).
func (o *Ontology) ShortestToOnePath(from, to string) (Path, bool) {
	if _, ok := o.concepts[from]; !ok {
		return nil, false
	}
	if _, ok := o.concepts[to]; !ok {
		return nil, false
	}
	if from == to {
		return Path{}, true
	}
	type qe struct {
		concept string
		path    Path
	}
	visited := map[string]bool{from: true}
	queue := []qe{{concept: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range o.toOneNeighbors(cur.concept) {
			if visited[s.To] {
				continue
			}
			np := make(Path, len(cur.path), len(cur.path)+1)
			copy(np, cur.path)
			np = append(np, s)
			if s.To == to {
				return np, true
			}
			visited[s.To] = true
			queue = append(queue, qe{concept: s.To, path: np})
		}
	}
	return nil, false
}

// ToOneClosure returns, for every concept functionally reachable from
// the given one, the shortest to-one path reaching it. The source maps
// to the empty path. This is the dimension-candidate set the
// Requirements Elicitor suggests from a chosen analysis focus.
func (o *Ontology) ToOneClosure(from string) map[string]Path {
	if _, ok := o.concepts[from]; !ok {
		return nil
	}
	out := map[string]Path{from: {}}
	type qe struct {
		concept string
		path    Path
	}
	queue := []qe{{concept: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range o.toOneNeighbors(cur.concept) {
			if _, seen := out[s.To]; seen {
				continue
			}
			np := make(Path, len(cur.path), len(cur.path)+1)
			copy(np, cur.path)
			np = append(np, s)
			out[s.To] = np
			queue = append(queue, qe{concept: s.To, path: np})
		}
	}
	return out
}

// FactCandidates ranks concepts by their suitability as analysis foci:
// concepts with numeric properties and many outgoing functional paths
// (potential dimensions) score high. This implements the elicitor's
// "automatically suggesting potentially interesting analytical
// perspectives".
func (o *Ontology) FactCandidates() []ScoredConcept {
	var out []ScoredConcept
	for _, c := range o.Concepts() {
		numMeasures := len(c.NumericProperties())
		reach := len(o.ToOneClosure(c.ID)) - 1
		score := float64(numMeasures)*2 + float64(reach)
		if numMeasures == 0 {
			score /= 4 // focusing on a measure-less concept is rarely useful
		}
		out = append(out, ScoredConcept{Concept: c.ID, Score: score, Measures: numMeasures, Dimensions: reach})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Concept < out[j].Concept
	})
	return out
}

// ScoredConcept is a ranked suggestion.
type ScoredConcept struct {
	Concept    string
	Score      float64
	Measures   int // numeric properties available as measures
	Dimensions int // concepts functionally reachable (dimension candidates)
}
