package engine

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"quarry/internal/expr"
)

// sortReference is the Sort operator as it was written on sort.SliceStable:
// a "less" over the same rules (NULLs first, then Value.Compare with a
// NaN after every number, values it cannot order tying).
func sortReference(rows [][]expr.Value, by []int) {
	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for _, j := range by {
			va, vb := ra[j], rb[j]
			if va.IsNull() || vb.IsNull() {
				if va.IsNull() && vb.IsNull() {
					continue
				}
				return va.IsNull()
			}
			c, err := va.Compare(vb)
			if err != nil {
				continue
			}
			if c == 0 {
				fa, _ := va.AsFloat()
				fb, _ := vb.AsFloat()
				if na, nb := fa != fa, fb != fb; na != nb {
					return nb
				}
				continue
			}
			return c < 0
		}
		return false
	})
}

// TestQuickSortMatchesSliceStable: SortRowsBy puts dirty rows — NULLs,
// NaN, ±0, Int 3 beside Float 3.0, and kinds that do not compare, which
// make the order non-transitive — in exactly the order the reference
// does, row for row. Lengths cross the merge sort's block size.
func TestQuickSortMatchesSliceStable(t *testing.T) {
	pool := []expr.Value{
		expr.Null(), expr.Float(math.NaN()), expr.Float(0), expr.Float(math.Copysign(0, -1)),
		expr.Int(0), expr.Int(3), expr.Float(3), expr.Int(-7), expr.Float(2.5), expr.Float(math.Inf(1)),
		expr.Int(math.MaxInt64), expr.Str(""), expr.Str("3"), expr.Str("a"), expr.Bool(false), expr.Bool(true),
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
