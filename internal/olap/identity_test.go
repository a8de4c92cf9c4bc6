package olap_test

import (
	"math"
	"slices"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/storage"
)

// A slice of a diamond is one value of its column, so every answer
// source must agree on when two numbers are one value. Ints compare by
// value: 2⁵³ and 2⁵³+1, one float64 image, are two groups, two slices,
// two join keys, and a filter tells them apart. Every NaN is one group
// and one slice, sorted after every number, though NaN still joins
// nothing. The answers below are written out by hand and demanded from
// the fast path, the star-flow oracle, the materialized-aggregate
// rewrite and a gather over a dealt fleet.

const two53 = 1 << 53

// identityStar is a fact of five rows — NaN amounts of three payloads,
// ints on both sides of ±2⁵³ — and a dimension keyed by the float 2⁵³
// and by NaN.
func identityStar(rows ...storage.Row) []handTable {
	return []handTable{
		{name: "dim_b", cols: []storage.Column{{Name: "b_id", Type: "float"}, {Name: "b_kind", Type: "string"}},
			rows: []storage.Row{
				{expr.Float(two53), expr.Str("two53")},
				{expr.Float(math.NaN()), expr.Str("nan")},
			}},
		{name: "sales", refs: "k_b=dim_b.b_id", cols: []storage.Column{{Name: "shop", Type: "string"},
			{Name: "amt", Type: "float"}, {Name: "big", Type: "int"}, {Name: "k_b", Type: "int"}},
			rows: rows},
	}
}

var identityRows = map[string]storage.Row{
	"a": {expr.Str("a"), nanOf(0x7ff8000000000001), expr.Int(two53), expr.Int(two53 + 1)},
	"b": {expr.Str("b"), nanOf(0x7ff8000000000002), expr.Int(two53 + 1), expr.Int(two53)},
	"c": {expr.Str("c"), nanOf(0xfff8000000000000), expr.Int(two53), expr.Int(two53 + 1)},
	"d": {expr.Str("d"), expr.Float(1.5), expr.Int(-(two53 + 1)), expr.Int(two53)},
	"e": {expr.Str("e"), expr.Float(1.5), expr.Int(-two53), expr.Null()},
}

func nanOf(bits uint64) expr.Value { return expr.Float(math.Float64frombits(bits)) }

func identityRowsOf(names string) []storage.Row {
	var rows []storage.Row
	for _, name := range names {
		rows = append(rows, identityRows[string(name)])
	}
	return rows
}

func TestNumberIdentityOnEveryPath(t *testing.T) {
	measures := []olap.MeasureSpec{{Out: "n", Func: "COUNT"}, {Out: "lo", Func: "MIN", Col: "shop"}}
	cases := []struct {
		name string
		q    olap.CubeQuery
		want []string
	}{
		{"NaN keys are one group, after every number", olap.CubeQuery{GroupBy: []string{"amt"}},
			[]string{"columns: amt, n, lo", "float:1.5 | int:2 | string:'d'", "float:NaN.0 | int:3 | string:'a'"}},
		{"ints beside ±2^53 are groups of their own", olap.CubeQuery{GroupBy: []string{"big"}},
			[]string{"columns: big, n, lo", "int:-9007199254740993 | int:1 | string:'d'", "int:-9007199254740992 | int:1 | string:'e'",
				"int:9007199254740992 | int:2 | string:'a'", "int:9007199254740993 | int:1 | string:'b'"}},
		{"an int literal meets its own int only", olap.CubeQuery{GroupBy: []string{"shop"}, Filter: "big = 9007199254740993"},
			[]string{"columns: shop, n, lo", "string:'b' | int:1 | string:'b'"}},
		{"a float literal orders ints exactly", olap.CubeQuery{GroupBy: []string{"shop"}, Filter: "big > 9007199254740992.0"},
			[]string{"columns: shop, n, lo", "string:'b' | int:1 | string:'b'"}},
		{"a dice slices ints beside 2^53 apart", olap.CubeQuery{GroupBy: []string{"big"},
			Dice: &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"big": 2}}},
			[]string{"columns: big, n, lo", "int:9007199254740992 | int:2 | string:'a'"}},
		{"a dice's NaN slice holds every NaN", olap.CubeQuery{GroupBy: []string{"amt"},
			Dice: &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"amt": 3}}},
			[]string{"columns: amt, n, lo", "float:NaN.0 | int:3 | string:'a'"}},
		{"an int key meets the float it equals exactly, NaN nothing", olap.CubeQuery{GroupBy: []string{"b_kind"}},
			[]string{"columns: b_kind, n, lo", "string:'two53' | int:2 | string:'b'"}},
	}
	single := handEngine(t, storage.NewMemDB(), identityStar(identityRowsOf("abcde")...))
	// NaN rows dealt out of order: b on shard 0, a and c on shard 1. A
	// gather that kept each NaN row a group of its own ordered them by
	// shard, not as the single node does.
	fleet := []*olap.Engine{
		handEngine(t, storage.NewMemDB(), identityStar(identityRowsOf("be")...)),
		handEngine(t, storage.NewMemDB(), identityStar(identityRowsOf("acd")...)),
	}
	m := olap.NewMatAgg(8)
	cached := handEngine(t, openDisk(t), identityStar(identityRowsOf("abcde")...)).WithMatAgg(m)
	train(t, cached, olap.CubeQuery{Fact: "sales", GroupBy: []string{"amt", "big", "shop"}, Measures: measures})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.q
			q.Fact, q.Measures = "sales", measures
			check := func(path string, res *olap.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if got := encodeResult(res); !slices.Equal(got, tc.want) {
					t.Fatalf("%s answers\n%q, want\n%q", path, got, tc.want)
				}
			}
			res, err := single.Query(q)
			check("fast path", res, err)
			res, err = single.QueryStarFlow(q)
			check("oracle", res, err)
			res, err = gatherEngines(t, fleet, q)
			check("dealt gather", res, err)
			before := m.Stats()
			res, err = cached.Query(q)
			check("materialized aggregate", res, err)
			if after := m.Stats(); q.GroupBy[0] != "b_kind" && after.Hits+after.Rewrites == before.Hits+before.Rewrites {
				t.Fatalf("not answered from the aggregate: %+v", after)
			}
		})
	}
}
