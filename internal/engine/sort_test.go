package engine

import (
	"cmp"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"quarry/internal/expr"
)

// refOrder is the total order values sort and group by, written apart
// from expr: the kinds apart (NULL, numbers, strings, bools), numbers
// by their exact values through math/big — −0 as +0, every NaN after
// every number —, strings by bytes, FALSE before TRUE. 0 means one
// value.
func refOrder(a, b expr.Value) int {
	rank := func(v expr.Value) int {
		return map[expr.Kind]int{expr.KindNull: 0, expr.KindInt: 1, expr.KindFloat: 1, expr.KindString: 2, expr.KindBool: 3}[v.Kind()]
	}
	if ra, rb := rank(a), rank(b); ra != rb || ra != 1 {
		return cmp.Or(cmp.Compare(ra, rb), strings.Compare(a.AsString(), b.AsString()), cmp.Compare(a.String(), b.String()))
	}
	exact := func(v expr.Value) (*big.Float, int) {
		if v.Kind() == expr.KindInt {
			return new(big.Float).SetInt64(v.AsInt()), 0
		}
		if f, _ := v.AsFloat(); f == f {
			return big.NewFloat(f), 0
		}
		return nil, 1
	}
	x, xn := exact(a)
	y, yn := exact(b)
	if xn+yn > 0 {
		return cmp.Compare(xn, yn)
	}
	return x.Cmp(y)
}

// sortReference is the Sort operator on sort.SliceStable over refOrder.
func sortReference(rows [][]expr.Value, by []int) {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, j := range by {
			if c := refOrder(rows[a][j], rows[b][j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// TestQuickSortMatchesSliceStable: SortRowsBy puts dirty rows — NULLs,
// NaNs of several payloads, ±0, Int 3 beside Float 3.0, ints around
// ±2⁵³ beside the float they round to, and mixed kinds — in exactly the
// order the reference does, row for row. Lengths cross the merge sort's
// block size.
func TestQuickSortMatchesSliceStable(t *testing.T) {
	pool := []expr.Value{
		expr.Null(), expr.Float(math.NaN()), expr.Float(0), expr.Float(math.Copysign(0, -1)),
		expr.Int(0), expr.Int(3), expr.Float(3), expr.Int(-7), expr.Float(2.5), expr.Float(math.Inf(1)),
		expr.Int(math.MaxInt64), expr.Str(""), expr.Str("3"), expr.Str("a"), expr.Bool(false), expr.Bool(true),
		expr.Int(1<<53 + 1), expr.Float(1 << 53), expr.Int(1 << 53), expr.Int(-(1<<53 + 1)), expr.Float(-(1 << 53)),
		expr.Float(math.Float64frombits(0x7ff8000000000001)), expr.Float(math.Float64frombits(0xfff8000000000000)),
		expr.Float(0x1p63), expr.Int(math.MinInt64), expr.Float(-0x1p63),
	}
	rng := rand.New(rand.NewSource(30))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(150)
		width := 1 + rng.Intn(3)
		vals := pool[:2+rng.Intn(len(pool)-1)] // some rounds stay within a few kinds
		rows := make([][]expr.Value, n)
		for i := range rows {
			row := make([]expr.Value, width+1)
			row[0] = expr.Int(int64(i)) // the row's identity
			for c := 1; c <= width; c++ {
				row[c] = vals[rng.Intn(len(vals))]
			}
			rows[i] = row
		}
		var by []int
		for c := 1; c <= width; c++ {
			if rng.Intn(3) > 0 {
				by = append(by, c)
			}
		}
		want := slices.Clone(rows)
		sortReference(want, by)
		got := SortRowsBy(slices.Clone(rows), by)
		for i := range want {
			if got[i][0].AsInt() != want[i][0].AsInt() {
				t.Fatalf("round %d (%d rows, by %v): position %d holds row %d, the reference row %d",
					iter, n, by, i, got[i][0].AsInt(), want[i][0].AsInt())
			}
		}
	}
}
