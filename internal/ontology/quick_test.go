package ontology

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// genOntology builds a random ontology with n concepts and ~2n edges.
func genOntology(r *rand.Rand, n int) *Ontology {
	o := New("gen")
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("C%02d", i)
		o.AddConcept(id, "")
		o.AddProperty(id, "v", "float", "")
		o.AddProperty(id, "k", "string", "")
	}
	mults := []Multiplicity{OneToOne, ManyToOne, OneToMany, ManyToMany}
	for e := 0; e < 2*n; e++ {
		d := fmt.Sprintf("C%02d", r.Intn(n))
		g := fmt.Sprintf("C%02d", r.Intn(n))
		if d == g {
			continue
		}
		o.AddObjectProperty(fmt.Sprintf("e%03d", e), "", d, g, mults[r.Intn(len(mults))])
	}
	return o
}

// Property: every path in ToOneClosure is a valid functional chain
// from the source, and its length equals the BFS shortest length.
func TestQuickClosurePathsAreValidAndShortest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		o := genOntology(r, 3+r.Intn(10))
		src := fmt.Sprintf("C%02d", r.Intn(len(o.Concepts())))
		cl := o.ToOneClosure(src)
		for target, path := range cl {
			cur := src
			for _, s := range path {
				if s.From != cur || !s.ToOne() {
					return false
				}
				cur = s.To
			}
			if cur != target {
				return false
			}
			sp, ok := o.ShortestToOnePath(src, target)
			if !ok || len(sp) != len(path) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: ShortestToOnePath succeeds exactly for targets in the
// closure, and every enumerated simple path has at least that length.
func TestQuickShortestConsistentWithAll(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		o := genOntology(r, 3+r.Intn(8))
		concepts := o.Concepts()
		src := concepts[r.Intn(len(concepts))].ID
		dst := concepts[r.Intn(len(concepts))].ID
		cl := o.ToOneClosure(src)
		sp, ok := o.ShortestToOnePath(src, dst)
		if _, inCl := cl[dst]; inCl != ok {
			return false
		}
		if !ok {
			return len(allToOnePaths(o, src, dst, 6)) == 0
		}
		for _, p := range allToOnePaths(o, src, dst, 6) {
			if len(p) < len(sp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// allToOnePaths enumerates every simple functional path from→to of at
// most maxLen hops: the reference ShortestToOnePath is checked against.
func allToOnePaths(o *Ontology, from, to string, maxLen int) []Path {
	var out []Path
	var dfs func(cur string, visited map[string]bool, path Path)
	dfs = func(cur string, visited map[string]bool, path Path) {
		if cur == to && len(path) > 0 {
			out = append(out, append(Path(nil), path...))
			return
		}
		if len(path) >= maxLen {
			return
		}
		for _, s := range o.toOneNeighbors(cur) {
			if !visited[s.To] {
				visited[s.To] = true
				dfs(s.To, visited, append(path, s))
				delete(visited, s.To)
			}
		}
	}
	dfs(from, map[string]bool{from: true}, nil)
	return out
}
