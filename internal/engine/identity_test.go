package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// Each kernel on numbers that share a float64 image but are not one
// value: Int 2⁵³ and Int 2⁵³+1 (and Float 2⁵³, which is exactly the
// first), and NaNs of several payloads. The answers are written out by
// hand.

const two53 = int64(1) << 53

// TestJoinKeysMeetExactly: an int key meets the float it equals
// exactly and no other int of its image; NaN and NULL meet nothing.
func TestJoinKeysMeetExactly(t *testing.T) {
	j, err := NewHashJoin([]int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	j.Build([][]expr.Value{
		{expr.Float(float64(two53)), expr.Str("float 2^53")},
		{nanOf(0x7ff8000000000001), expr.Str("NaN")},
		{expr.Int(two53 + 1), expr.Str("2^53+1")},
		{expr.Int(-two53 - 1), expr.Str("-2^53-1")},
	})
	got := j.Probe(nil, [][]expr.Value{
		{expr.Int(two53)}, {expr.Int(two53 + 1)}, {expr.Float(math.NaN())}, {expr.Float(float64(-two53))}, {expr.Null()},
	})
	want := [][]expr.Value{
		{expr.Int(two53), expr.Float(float64(two53)), expr.Str("float 2^53")},
		{expr.Int(two53 + 1), expr.Int(two53 + 1), expr.Str("2^53+1")},
	}
	if msg := sameRows(got, want); msg != "" {
		t.Fatal(msg)
	}
}

// TestFilterOrdersIntsExactly: a comparison of an int column with an
// int or a float literal, vectorised, keeps the rows whose exact value
// satisfies it.
func TestFilterOrdersIntsExactly(t *testing.T) {
	ints := storage.VectorOf([]expr.Value{expr.Int(two53), expr.Int(two53 + 1), expr.Int(-two53), expr.Int(-two53 - 1)})
	floats := storage.VectorOf([]expr.Value{expr.Float(float64(two53)), expr.Float(float64(-two53))})
	for _, tc := range []struct {
		pred string
		vec  *storage.Vector
		want []int32
	}{
		{"x = 9007199254740993", ints, []int32{1}},
		{"x <> 9007199254740992", ints, []int32{1, 2, 3}},
		{"x > 9007199254740992.0", ints, []int32{1}},
		{"x < -9007199254740992.0", ints, []int32{3}},
		{"x = 9007199254740992.0", ints, []int32{0}},
		{"x < 9007199254740993", floats, []int32{0, 1}},
		{"x > -9007199254740993", floats, []int32{0, 1}},
	} {
		f := NewVectorFilter(expr.MustParse(tc.pred), map[string]int{"x": 0})
		got, err := f.Apply(tc.vec.Len(), []Column{{Vec: tc.vec}}, nil)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s over %s keeps %v (%v), want %v", tc.pred, tc.vec.Kind, got, err, tc.want)
		}
	}
}

// TestRowFoldGroupsByIdentity: the row fold, and the sort after it,
// keep ints beside 2⁵³ apart, put every NaN in one group keyed
// math.NaN() and sort it after every number.
func TestRowFoldGroupsByIdentity(t *testing.T) {
	a, err := NewHashAggregator([]int{0}, []xlm.AggSpec{{Out: "n", Func: "COUNT"}}, []int{-1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add([][]expr.Value{
		{nanOf(0xfff8000000000000)}, {expr.Int(two53 + 1)}, {expr.Float(float64(two53))}, {nanOf(0x7ff8000000000002)},
		{expr.Int(two53)}, {expr.Float(math.Inf(1))},
	}); err != nil {
		t.Fatal(err)
	}
	got := SortRowsBy(a.Result(), []int{0})
	want := [][]expr.Value{
		{expr.Float(float64(two53)), expr.Int(2)}, {expr.Int(two53 + 1), expr.Int(1)},
		{expr.Float(math.Inf(1)), expr.Int(1)}, {expr.Float(math.NaN()), expr.Int(2)},
	}
	if msg := sameRows(got, want); msg != "" {
		t.Fatal(msg + fmt.Sprint(" in ", got))
	}
}
