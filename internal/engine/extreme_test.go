package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/xlm"
)

// extremePools are the values Compare cannot tell apart although they
// differ: signed zeros, NaNs of several payloads and both signs (which
// Compare ties with everything), infinities, and ints beyond 2⁵³ that
// share a float image — each beside ordinary values and duplicates.
var extremePools = []struct {
	kind   expr.Kind
	values []expr.Value
}{
	{expr.KindFloat, []expr.Value{
		expr.Float(0), expr.Float(math.Copysign(0, -1)),
		expr.Float(math.Float64frombits(0x7ff8000000000001)), expr.Float(math.Float64frombits(0x7ff8000000000002)),
		expr.Float(math.Float64frombits(0xfff8000000000001)),
		expr.Float(math.Inf(1)), expr.Float(math.Inf(-1)),
		expr.Float(1.5), expr.Float(1.5), expr.Float(-2), expr.Null(),
	}},
	{expr.KindInt, []expr.Value{
		expr.Int(1 << 53), expr.Int(1<<53 + 1), expr.Int(1<<53 + 1), expr.Int(1<<53 + 2),
		expr.Int(-(1 << 53)), expr.Int(-(1<<53 + 1)), expr.Int(0), expr.Null(),
	}},
}

var extremeAggs = []xlm.AggSpec{{Out: "lo", Func: "MIN", Col: "x"}, {Out: "hi", Func: "MAX", Col: "x"}}

// extremesOf folds the one-column rows as a global MIN and MAX: through
// Add or through AddVectors, either in one go (cut < 0) or split after
// row i for every set bit i of cut into runs that are aggregated apart
// and merged by MergeCells.
func extremesOf(t *testing.T, rows [][]expr.Value, kind expr.Kind, vectors bool, cut int) []expr.Value {
	t.Helper()
	fold := func(rows [][]expr.Value) *HashAggregator {
		a, err := NewHashAggregator(nil, extremeAggs, []int{0, 0})
		if err == nil && vectors {
			col := columnOf(rows, 0, kind)
			err = a.AddVectors(len(rows), nil, []Column{{Vec: col}, {Vec: col}})
		} else if err == nil {
			err = a.Add(rows)
		}
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if cut < 0 {
		return fold(rows).Result()[0]
	}
	var parts []Cells
	for start, i := 0, 1; i <= len(rows); i++ {
		if i == len(rows) || cut>>(i-1)&1 == 1 {
			parts = append(parts, fold(rows[start:i]).Partials())
			start = i
		}
	}
	merged, err := MergeCells(0, extremeAggs, parts...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := merged.Answer(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// permute calls visit with every permutation of rows (Heap's algorithm).
func permute(rows [][]expr.Value, k int, visit func()) {
	if k <= 1 {
		visit()
		return
	}
	for i := 0; i < k; i++ {
		permute(rows, k-1, visit)
		if k%2 == 0 {
			rows[i], rows[k-1] = rows[k-1], rows[i]
		} else {
			rows[0], rows[k-1] = rows[k-1], rows[0]
		}
	}
}

// TestExtremesAreAFunctionOfTheMultiset: MIN and MAX must not depend on
// the order values arrive in, nor on how the rows were partitioned into
// partial states and in which order those merge — a shard gather and a
// materialized-aggregate rewrite fix neither. Every permutation of each
// multiset, through Add and through AddVectors, and every cut of every
// permutation into separately aggregated runs (which is every ordered
// partition) must give bit-identical extremes.
func TestExtremesAreAFunctionOfTheMultiset(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, pool := range extremePools {
		for round := 0; round < 30; round++ {
			rows := make([][]expr.Value, 2+r.Intn(4))
			for i := range rows {
				rows[i] = []expr.Value{pool.values[r.Intn(len(pool.values))]}
			}
			want := extremesOf(t, rows, pool.kind, false, -1)
			permute(rows, len(rows), func() {
				for _, vectors := range []bool{false, true} {
					for cut := -1; cut < 1<<(len(rows)-1); cut++ {
						got := extremesOf(t, rows, pool.kind, vectors, cut)
						if !identical(got[0], want[0]) || !identical(got[1], want[1]) {
							t.Fatalf("%v (vectors %v, cut %d): MIN %s MAX %s, another order gave MIN %s MAX %s",
								rows, vectors, cut, bitsOf(got[0]), bitsOf(got[1]), bitsOf(want[0]), bitsOf(want[1]))
						}
					}
				}
			})
		}
	}
}

// TestExtremesOrder pins the order the ties are broken in.
func TestExtremesOrder(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	negNaN := math.Float64frombits(0xfff8000000000001)
	for _, tc := range []struct {
		name   string
		values []expr.Value
		lo, hi expr.Value
	}{
		{"signed zeros", []expr.Value{expr.Float(0), expr.Float(math.Copysign(0, -1))}, expr.Float(math.Copysign(0, -1)), expr.Float(0)},
		{"NaN above +Inf", []expr.Value{expr.Float(nan), expr.Float(math.Inf(1)), expr.Float(1)}, expr.Float(1), expr.Float(nan)},
		{"NaNs by sign", []expr.Value{expr.Float(nan), expr.Float(negNaN)}, expr.Float(negNaN), expr.Float(nan)},
		{"ints of one float image", []expr.Value{expr.Int(1<<53 + 1), expr.Int(1 << 53)}, expr.Int(1 << 53), expr.Int(1<<53 + 1)},
		{"int below its float image", []expr.Value{expr.Float(3), expr.Int(3)}, expr.Int(3), expr.Float(3)},
	} {
		rows := make([][]expr.Value, len(tc.values))
		for i, v := range tc.values {
			rows[i] = []expr.Value{v}
		}
		got := extremesOf(t, rows, expr.KindFloat, false, -1)
		if !identical(got[0], tc.lo) || !identical(got[1], tc.hi) {
			t.Errorf("%s: MIN %s MAX %s, want %s and %s", tc.name, bitsOf(got[0]), bitsOf(got[1]), bitsOf(tc.lo), bitsOf(tc.hi))
		}
	}
}

// bitsOf prints a value so that floats Compare ties stay apart.
func bitsOf(v expr.Value) string {
	if f, ok := v.AsFloat(); ok && v.Kind() == expr.KindFloat {
		return fmt.Sprintf("float:%#016x", math.Float64bits(f))
	}
	return fmt.Sprintf("%d:%s", v.Kind(), v)
}
