package etlintegrator

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/interpreter"
	"quarry/internal/mdintegrator"
	"quarry/internal/olap"
	"quarry/internal/quality"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// TestReorderingPreservesWarehouse executes the integrator's output:
// the four canonical requirements integrated with the equivalence-rule
// reordering on and off, in presentation order and reversed, each
// unified flow run over the same SF 1 sources. Every loaded table, as a
// multiset of rendered rows, and every requirement's cube answer must
// be the same from all four warehouses.
func TestReorderingPreservesWarehouse(t *testing.T) {
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := interpreter.New(o, m, c)
	if err != nil {
		t.Fatal(err)
	}
	var partials []*interpreter.PartialDesign
	var md *xmd.Schema
	mdInt := mdintegrator.New(nil, nil)
	for _, r := range tpch.CanonicalRequirements() {
		pd, err := in.Interpret(r)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, pd)
		if md, _, err = mdInt.Integrate(md, pd.MD); err != nil {
			t.Fatal(err)
		}
	}
	type warehouse struct {
		tables  map[string][]string
		answers map[string][]string
	}
	build := func(reorder, reversed bool) warehouse {
		it := New(quality.DefaultETLCost(c), reorder)
		order := slices.Clone(partials)
		if reversed {
			slices.Reverse(order)
		}
		var etl *xlm.Design
		for _, pd := range order {
			if etl, _, err = it.Integrate(etl, pd.ETL.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		db := storage.NewMemDB()
		if _, err := tpch.Generate(db, 1, 42); err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(etl.Clone(), db)
		if err != nil {
			t.Fatalf("reorder=%v reversed=%v: %v", reorder, reversed, err)
		}
		w := warehouse{tables: map[string][]string{}, answers: map[string][]string{}}
		for name := range res.Loaded {
			table, ok := db.Table(name)
			if !ok {
				t.Fatalf("loaded table %q is missing", name)
			}
			var lines []string
			for _, row := range table.Rows() {
				lines = append(lines, fmt.Sprint(row))
			}
			slices.Sort(lines)
			w.tables[name] = lines
		}
		oe, err := olap.New(md.Clone(), etl.Clone(), db, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, pd := range partials {
			q := cubeOf(pd.Requirement)
			ans, err := oe.Query(q)
			if err != nil {
				t.Fatalf("reorder=%v reversed=%v: %s: %v", reorder, reversed, pd.Requirement.ID, err)
			}
			lines := []string{strings.Join(ans.Columns, " | ")}
			for _, row := range ans.Rows {
				lines = append(lines, fmt.Sprint(row))
			}
			w.answers[pd.Requirement.ID] = lines
		}
		return w
	}
	want := build(false, false)
	for id, lines := range want.answers {
		if len(lines) < 2 {
			t.Errorf("%s: the cube answer is empty", id)
		}
	}
	for _, tc := range []struct{ reorder, reversed bool }{{true, false}, {false, true}, {true, true}} {
		label := fmt.Sprintf("reorder=%v reversed=%v", tc.reorder, tc.reversed)
		got := build(tc.reorder, tc.reversed)
		if len(got.tables) != len(want.tables) {
			t.Fatalf("%s: %d tables loaded, want %d", label, len(got.tables), len(want.tables))
		}
		for name, rows := range want.tables {
			if !slices.Equal(got.tables[name], rows) {
				t.Errorf("%s: table %q holds other rows (%d, want %d)", label, name, len(got.tables[name]), len(rows))
			}
		}
		for id, lines := range want.answers {
			if !slices.Equal(got.answers[id], lines) {
				t.Errorf("%s: %s answers\n%q\nwant\n%q", label, id, got.answers[id], lines)
			}
		}
	}
}

// cubeOf is a requirement's cube query: its fact table grouped by its
// dimension attributes, with each aggregate it asks for and COUNT(*).
func cubeOf(r *xrq.Requirement) olap.CubeQuery {
	q := olap.CubeQuery{Fact: "fact_table_" + r.Measures[0].ID, Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT"}}}
	for _, d := range r.Dimensions {
		q.GroupBy = append(q.GroupBy, d.Concept[strings.Index(d.Concept, ".")+1:])
	}
	for _, a := range r.Aggs {
		ms := olap.MeasureSpec{Out: strings.ToLower(string(a.Function)) + "_" + a.Measure, Func: string(a.Function), Col: a.Measure}
		if !slices.Contains(q.Measures, ms) {
			q.Measures = append(q.Measures, ms)
		}
	}
	return q
}
