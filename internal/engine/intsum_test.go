package engine

import (
	"math"
	"math/big"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// An int SUM keeps no float expansion until its column meets a float
// the image sum cannot hold; its answers and its overflow verdict are
// those of the expansion it no longer keeps.

// groupedSums folds rows of (group, a, b) into SUM(a) and SUM(b) grouped
// by the first column: through Add, through AddVectors a row per batch
// (each batch's vectors typed), and through partials of single rows
// merged. It returns the three answers and the aggregators that folded
// the first two.
func groupedSums(t *testing.T, rows [][]expr.Value) (answers [3][][]expr.Value, errs [3]error, folds [2]*HashAggregator) {
	t.Helper()
	aggs := []xlm.AggSpec{{Out: "sa", Func: "SUM", Col: "a"}, {Out: "sb", Func: "SUM", Col: "b"}}
	fresh := func() *HashAggregator {
		a, err := NewHashAggregator([]int{0}, aggs, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	byRows, byVectors := fresh(), fresh()
	if err := byRows.Add(rows); err != nil {
		t.Fatal(err)
	}
	var parts []Cells
	for _, row := range rows {
		col := func(i int) Column { return Column{Vec: storage.VectorOf(row[i : i+1])} }
		if err := byVectors.AddVectors(1, []Column{col(0)}, []Column{col(1), col(2)}); err != nil {
			t.Fatal(err)
		}
		part := fresh()
		if err := part.Add([][]expr.Value{row}); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part.Partials())
	}
	answers[0], errs[0] = byRows.op.result()
	answers[1], errs[1] = byVectors.op.result()
	merged, err := MergeCells(1, aggs, parts...)
	if err != nil {
		t.Fatal(err)
	}
	answers[2], errs[2] = merged.op.result()
	return answers, errs, [2]*HashAggregator{byRows, byVectors}
}

// exactSum is the float nearest the real sum of vals, ties to even.
func exactSum(vals ...expr.Value) float64 {
	sum := new(big.Float).SetPrec(2000)
	for _, v := range vals {
		f, _ := v.AsFloat()
		if v.Kind() == expr.KindInt {
			sum.Add(sum, new(big.Float).SetInt64(v.AsInt()))
		} else {
			sum.Add(sum, new(big.Float).SetFloat64(f))
		}
	}
	f, _ := sum.Float64()
	return f
}

func TestIntSumKeepsNoExpansion(t *testing.T) {
	i, f := expr.Int, expr.Float
	const max, min = math.MaxInt64, math.MinInt64
	for _, tc := range []struct {
		name     string
		rows     [][]expr.Value // group, a, b
		want     [][]expr.Value
		err      string
		expanded bool // SUM(a)'s column keeps expansions
	}{
		{"ints, then one float in a group",
			[][]expr.Value{{i(1), i(1), i(1)}, {i(2), i(2), i(2)}, {i(1), i(3), i(3)}, {i(1), f(0.5), i(4)}},
			[][]expr.Value{{i(1), f(4.5), i(8)}, {i(2), i(2), i(2)}}, "", true},
		{"ints near ±2⁶³, then a float",
			[][]expr.Value{{i(1), i(max), i(0)}, {i(2), i(min), i(0)}, {i(1), i(max - 1), i(0)}, {i(1), f(0.5), i(0)},
				{i(2), f(-1.5), i(0)}, {i(1), i(-max), i(0)}},
			[][]expr.Value{{i(1), f(exactSum(i(max), i(max-1), f(0.5), i(-max))), i(0)}, {i(2), f(exactSum(i(min), f(-1.5))), i(0)}},
			"", true},
		{"a float first",
			[][]expr.Value{{i(1), f(0.25), i(1)}, {i(1), i(1), i(1)}, {i(1), i(2), i(1)}},
			[][]expr.Value{{i(1), f(3.25), i(3)}}, "", true},
		{"an integral float keeps no expansion",
			[][]expr.Value{{i(1), f(3), i(1)}, {i(1), i(1), i(1)}},
			[][]expr.Value{{i(1), f(4), i(2)}}, "", false},
		{"2⁶² + 1023 and 2⁶² − 1024: images at 2⁶³, the sum in int64",
			[][]expr.Value{{i(1), i(1<<62 + 1023), i(0)}, {i(1), i(1<<62 - 1024), i(0)}},
			[][]expr.Value{{i(1), i(max), i(0)}}, "", false},
		{"overflow: the first group's, then its first aggregate's",
			[][]expr.Value{{i(1), i(1), i(max)}, {i(2), i(max), i(0)}, {i(1), i(1), i(1)}, {i(2), i(1), i(0)}},
			nil, `aggregation SUM "sb" overflows int64`, false},
		{"overflow in both aggregates of a group: the first aggregate's",
			[][]expr.Value{{i(1), i(min), i(min)}, {i(1), i(-1), i(-1)}},
			nil, `aggregation SUM "sa" overflows int64`, false},
	} {
		answers, errs, folds := groupedSums(t, tc.rows)
		for way, rows := range answers {
			switch {
			case tc.err != "" && (errs[way] == nil || errs[way].Error() != tc.err):
				t.Errorf("%s, way %d: error %v, want %s", tc.name, way, errs[way], tc.err)
			case tc.err == "" && errs[way] != nil:
				t.Errorf("%s, way %d: %v", tc.name, way, errs[way])
			case tc.err == "":
				if d := sameRows(rows, tc.want); d != "" {
					t.Errorf("%s, way %d: %s", tc.name, way, d)
				}
			}
		}
		for way, a := range folds {
			if got := a.op.cols[0].Sums != nil; got != tc.expanded {
				t.Errorf("%s, way %d: SUM(a) keeps expansions %v, want %v", tc.name, way, got, tc.expanded)
			}
			if a.op.cols[1].Sums != nil {
				t.Errorf("%s, way %d: SUM(b), over ints alone, keeps expansions", tc.name, way)
			}
		}
	}
}
