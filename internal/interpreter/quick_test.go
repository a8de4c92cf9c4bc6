package interpreter

import (
	"testing"
	"testing/quick"

	"quarry/internal/engine"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
)

// TestQuickInterpretationDeterministic: interpreting the same
// requirement twice yields byte-identical designs (the integrators
// and the repository depend on this).
func TestQuickInterpretationDeterministic(t *testing.T) {
	in := newTPCH(t)
	reqs := tpch.GenerateRequirements(16)
	f := func(pick uint8) bool {
		r := reqs[int(pick)%len(reqs)]
		pd1, err := in.Interpret(r)
		if err != nil {
			return false
		}
		pd2, err := in.Interpret(r)
		if err != nil {
			return false
		}
		md1, err := xmd.Marshal(pd1.MD)
		if err != nil {
			return false
		}
		md2, err := xmd.Marshal(pd2.MD)
		if err != nil {
			return false
		}
		etl1, err := xlm.Marshal(pd1.ETL)
		if err != nil {
			return false
		}
		etl2, err := xlm.Marshal(pd2.ETL)
		if err != nil {
			return false
		}
		return md1 == md2 && etl1 == etl2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 48}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedRequirementsExecute: every synthesised requirement's
// flow executes on generated data, loads its fact table, and never
// produces more fact rows than source lineitems (aggregation can only
// shrink).
func TestGeneratedRequirementsExecute(t *testing.T) {
	in := newTPCH(t)
	db := storage.NewMemDB()
	sz, err := tpch.Generate(db, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tpch.GenerateRequirements(16) {
		pd, err := in.Interpret(r)
		if err != nil {
			t.Errorf("%s: %v", r.ID, err)
			continue
		}
		res, err := engine.Run(pd.ETL, db)
		if err != nil {
			t.Errorf("%s: run: %v", r.ID, err)
			continue
		}
		fact := FactTableName(r)
		if res.Loaded[fact] > int64(sz.Lineitem) {
			t.Errorf("%s: fact grew beyond source: %d > %d", r.ID, res.Loaded[fact], sz.Lineitem)
		}
	}
}

// TestDimPathsAreFunctional: every recorded dimension path is made of
// to-one hops rooted at the fact concept.
func TestDimPathsAreFunctional(t *testing.T) {
	in := newTPCH(t)
	for _, r := range tpch.GenerateRequirements(24) {
		pd, err := in.Interpret(r)
		if err != nil {
			t.Fatal(err)
		}
		for target, path := range pd.DimPaths {
			cur := pd.FactConcept
			for _, s := range path {
				if s.From != cur {
					t.Fatalf("%s: broken chain to %s", r.ID, target)
				}
				if !s.ToOne() {
					t.Fatalf("%s: non-functional hop %s on path to %s", r.ID, s.Prop.ID, target)
				}
				cur = s.To
			}
			if cur != target {
				t.Fatalf("%s: path to %s ends at %s", r.ID, target, cur)
			}
		}
	}
}
