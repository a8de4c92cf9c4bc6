package xmd

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// genSchema builds a random valid constellation.
func genSchema(r *rand.Rand) *Schema {
	s := &Schema{Name: fmt.Sprintf("s%d", r.Intn(100))}
	nDims := 1 + r.Intn(4)
	for d := 0; d < nDims; d++ {
		dim := &Dimension{Name: fmt.Sprintf("D%d", d), Temporal: r.Intn(5) == 0}
		nLevels := 1 + r.Intn(3)
		for l := 0; l < nLevels; l++ {
			lvl := &Level{Name: fmt.Sprintf("L%d_%d", d, l), Concept: fmt.Sprintf("C%d_%d", d, l)}
			for a := 0; a <= r.Intn(3); a++ {
				lvl.Descriptors = append(lvl.Descriptors, Descriptor{
					Name: fmt.Sprintf("a%d", a),
					Type: []string{"int", "float", "string", "bool"}[r.Intn(4)],
					Attr: fmt.Sprintf("%s.a%d", lvl.Concept, a),
				})
			}
			lvl.Key = lvl.Descriptors[0].Name
			dim.Levels = append(dim.Levels, lvl)
			if l > 0 {
				// Chain roll-up: finer (l) → coarser (l-1)? Keep
				// direction 0→1→2 so level 0 stays base.
				dim.Rollups = append(dim.Rollups, Rollup{
					From: fmt.Sprintf("L%d_%d", d, l-1),
					To:   lvl.Name,
				})
			}
		}
		s.Dimensions = append(s.Dimensions, dim)
	}
	nFacts := 1 + r.Intn(2)
	for f := 0; f < nFacts; f++ {
		fact := &Fact{Name: fmt.Sprintf("F%d", f), Concept: fmt.Sprintf("FC%d", f)}
		for m := 0; m <= r.Intn(3); m++ {
			fact.Measures = append(fact.Measures, Measure{
				Name:       fmt.Sprintf("m%d", m),
				Type:       []string{"int", "float"}[r.Intn(2)],
				Additivity: []Additivity{AdditivityFlow, AdditivityStock, AdditivityUnit}[r.Intn(3)],
			})
		}
		// Each fact uses a random non-empty subset of dimensions at
		// their base level.
		used := false
		for d := 0; d < nDims; d++ {
			if r.Intn(2) == 0 || (!used && d == nDims-1) {
				fact.Uses = append(fact.Uses, DimensionUse{
					Dimension: fmt.Sprintf("D%d", d),
					Level:     fmt.Sprintf("L%d_0", d),
				})
				used = true
			}
		}
		s.Facts = append(s.Facts, fact)
	}
	return s
}

// Property: Clone never aliases — mutating every clone field leaves
// the original validating with unchanged stats.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := genSchema(r)
		before := s.Stats()
		c := s.Clone()
		for _, fct := range c.Facts {
			fct.Name += "_x"
			for i := range fct.Measures {
				fct.Measures[i].Name += "_x"
			}
			for i := range fct.Uses {
				fct.Uses[i].Dimension += "_x"
			}
		}
		for _, d := range c.Dimensions {
			d.Name += "_x"
			for _, l := range d.Levels {
				l.Name += "_x"
				for i := range l.Descriptors {
					l.Descriptors[i].Name += "_x"
				}
			}
			for i := range d.Rollups {
				d.Rollups[i].From += "_x"
			}
		}
		return s.Stats() == before && s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SharedDimensions counts exactly the dimensions used by
// more than one fact.
func TestQuickSharedDimensionsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := genSchema(r)
		count := map[string]int{}
		for _, fct := range s.Facts {
			for _, u := range fct.Uses {
				count[u.Dimension]++
			}
		}
		want := 0
		for _, c := range count {
			if c > 1 {
				want++
			}
		}
		return len(s.SharedDimensions()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
