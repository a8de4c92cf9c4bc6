package olap_test

import (
	"fmt"
	"strings"
	"testing"

	"quarry/internal/core"
	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// platformWith builds a platform over generated TPC-H data (sf, seed),
// adds the requirements and populates the DW.
func platformWith(t testing.TB, sf float64, seed int64, reqs ...*xrq.Requirement) (*core.Platform, *storage.DB) {
	t.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, sf, seed); err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if _, err := p.AddRequirement(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return p, db
}

// encodeValue renders a value with its kind, so byte-identical
// comparison distinguishes Int(1) from Float(1).
func encodeValue(v expr.Value) string {
	return v.Kind().String() + ":" + v.String()
}

// encodeResult flattens a result into comparable lines (one per row,
// preceded by the column header).
func encodeResult(res *olap.Result) []string {
	out := []string{"columns: " + strings.Join(res.Columns, ", ")}
	for _, row := range res.Rows {
		vals := make([]string, len(row))
		for i, v := range row {
			vals[i] = encodeValue(v)
		}
		out = append(out, strings.Join(vals, " | "))
	}
	return out
}

// assertIdentical fails unless the two results are byte-identical.
func assertIdentical(t *testing.T, label string, fast, oracle *olap.Result) {
	t.Helper()
	f, o := encodeResult(fast), encodeResult(oracle)
	if len(f) != len(o) {
		t.Fatalf("%s: fast path has %d lines, oracle %d\nfast:\n%s\noracle:\n%s",
			label, len(f), len(o), strings.Join(f, "\n"), strings.Join(o, "\n"))
	}
	for i := range f {
		if f[i] != o[i] {
			t.Fatalf("%s: line %d differs\nfast:   %s\noracle: %s", label, i, f[i], o[i])
		}
	}
}

// queryString renders a query for failure messages.
func queryString(q olap.CubeQuery) string {
	return fmt.Sprintf("fact=%s group=%v rollup=%v measures=%v filter=%q dice=%v",
		q.Fact, q.GroupBy, q.RollUp, q.Measures, q.Filter, q.Dice)
}
