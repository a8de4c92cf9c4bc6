package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// identical is bit-exact equality: kinds, NaN payloads and signed zeros
// included.
func identical(a, b expr.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == expr.KindFloat {
		x, _ := a.AsFloat()
		y, _ := b.AsFloat()
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return a.IsNull() || a.Equal(b)
}

// testCoder codes values bit-exactly in first-seen order, as the OLAP
// fast path's coder does.
type testCoder struct {
	codes map[string]uint32
	dict  []expr.Value
}

func (c *testCoder) code(v expr.Value) uint32 {
	key := fmt.Sprintf("%d:%s", v.Kind(), v)
	if f, ok := v.AsFloat(); ok && v.Kind() == expr.KindFloat {
		key = fmt.Sprintf("f:%x", math.Float64bits(f))
	}
	code, ok := c.codes[key]
	if !ok {
		if c.codes == nil {
			c.codes = map[string]uint32{}
		}
		code = uint32(len(c.dict))
		c.dict = append(c.dict, v)
		c.codes[key] = code
	}
	return code
}

// columnOf transposes column ci of rows into a vector of the given
// kind.
func columnOf(rows [][]expr.Value, ci int, kind expr.Kind) *storage.Vector {
	v := &storage.Vector{Kind: kind}
	var coder testCoder
	for r, row := range rows {
		x := row[ci]
		if x.IsNull() {
			if v.Nulls == nil {
				v.Nulls = make([]uint64, (len(rows)+63)/64)
			}
			v.Nulls[r>>6] |= 1 << (uint(r) & 63)
		}
		switch kind {
		case expr.KindInt:
			v.Ints = append(v.Ints, x.AsInt())
		case expr.KindFloat:
			f, _ := x.AsFloat()
			v.Floats = append(v.Floats, f)
		default:
			code := uint32(0)
			if !x.IsNull() {
				code = coder.code(x)
			}
			v.Codes, v.Dict = append(v.Codes, code), coder.dict
		}
	}
	return v
}

// valuesAt is column ci of rows.
func valuesAt(rows [][]expr.Value, ci int) []expr.Value {
	vals := make([]expr.Value, len(rows))
	for r, row := range rows {
		vals[r] = row[ci]
	}
	return vals
}

// vectorCase is one aggregation both entries must answer alike: rows
// hold the group columns first, then one column per measure kind.
type vectorCase struct {
	groupCols int
	aggs      []xlm.AggSpec
	aggIdx    []int
	kinds     []expr.Kind // of every column an aggregate reads, by row position
	batches   [][][]expr.Value

	last *HashAggregator // the aggregator of the latest run
}

// run folds the case through Add (rows) or AddVectors and returns the
// finalised rows and the exported partials.
func (tc *vectorCase) run(t *testing.T, vectors bool) ([][]expr.Value, Cells) {
	t.Helper()
	groupIdx := make([]int, tc.groupCols)
	for i := range groupIdx {
		groupIdx[i] = i
	}
	a, err := NewHashAggregator(groupIdx, tc.aggs, tc.aggIdx)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range tc.batches {
		if !vectors {
			if err := a.Add(rows); err != nil {
				t.Fatal(err)
			}
			continue
		}
		groups := make([]Column, tc.groupCols)
		for g := range groups {
			groups[g] = Column{Vec: storage.VectorOf(valuesAt(rows, g))}
		}
		measures := make([]Column, len(tc.aggs))
		for i, ci := range tc.aggIdx {
			if ci >= 0 {
				measures[i] = Column{Vec: columnOf(rows, ci, tc.kinds[ci])}
			}
		}
		if err := a.AddVectors(len(rows), groups, measures); err != nil {
			t.Fatal(err)
		}
	}
	tc.last = a
	return a.Result(), a.Partials()
}

func (tc *vectorCase) check(t *testing.T) {
	t.Helper()
	wantRows, wantParts := tc.run(t, false)
	gotRows, gotParts := tc.run(t, true)
	if len(gotRows) != len(wantRows) || gotParts.N != wantParts.N {
		t.Fatalf("vectors made %d rows and %d partials, rows made %d and %d", len(gotRows), gotParts.N, len(wantRows), wantParts.N)
	}
	for i := range wantRows {
		for j := range wantRows[i] {
			if !identical(wantRows[i][j], gotRows[i][j]) {
				t.Fatalf("group %d column %d: vectors %s, rows %s", i, j, gotRows[i][j], wantRows[i][j])
			}
		}
	}
	for i := range wantParts.N {
		for g := range wantParts.Keys {
			if w, v := wantParts.Keys[g].Value(i), gotParts.Keys[g].Value(i); !identical(w, v) {
				t.Fatalf("partial %d group value %d: vectors %s, rows %s", i, g, v, w)
			}
		}
		for m := range wantParts.States {
			w, g := cellOf(wantParts.States[m], i), cellOf(gotParts.States[m], i)
			if w.Count != g.Count || w.IntSum != g.IntSum || w.SumIsInt != g.SumIsInt ||
				!identical(w.Min, g.Min) || !identical(w.Max, g.Max) || w.Sum != g.Sum {
				t.Fatalf("partial %d measure %d: vectors %+v, rows %+v", i, m, g, w)
			}
		}
	}
}

// cell is one cell's states of one aggregate, read out of its columns
// for comparison: what the function does not keep is zero, with
// SumIsInt true, and Min and Max NULL.
type cell struct {
	Count, IntSum int64
	SumIsInt      bool
	Sum           string // the settled expansion: parts, special, has-special
	Min, Max      expr.Value
}

func cellOf(c StateCols, i int) cell {
	out := cell{Count: c.Counts[i], SumIsInt: true}
	if c.Sums != nil {
		parts, special, has := c.Sums[i].Export()
		out.IntSum, out.SumIsInt, out.Sum = c.IntSums[i], c.SumIsInt[i], fmt.Sprint(parts, special, has)
	}
	if c.Mins != nil {
		out.Min = c.Mins[i]
	}
	if c.Maxs != nil {
		out.Max = c.Maxs[i]
	}
	return out
}

// allAggs reads an int column at 0+g, a float column at 1+g and a
// string column at 2+g, where g is the group column count.
func allAggs(g int) ([]xlm.AggSpec, []int, []expr.Kind) {
	aggs := []xlm.AggSpec{
		{Func: "COUNT", Out: "n"}, {Func: "COUNT", Col: "i", Out: "ni"},
		{Func: "SUM", Col: "i", Out: "si"}, {Func: "AVG", Col: "i", Out: "ai"},
		{Func: "SUM", Col: "f", Out: "sf"}, {Func: "AVG", Col: "f", Out: "af"},
		{Func: "MIN", Col: "f", Out: "lf"}, {Func: "MAX", Col: "f", Out: "hf"},
		{Func: "MIN", Col: "i", Out: "li"}, {Func: "MAX", Col: "i", Out: "hi"},
		{Func: "MIN", Col: "s", Out: "ls"}, {Func: "MAX", Col: "s", Out: "hs"}, {Func: "COUNT", Col: "s", Out: "ns"},
	}
	idx := []int{-1, g, g, g, g + 1, g + 1, g + 1, g + 1, g, g, g + 2, g + 2, g + 2}
	kinds := make([]expr.Kind, g+3)
	kinds[g], kinds[g+1], kinds[g+2] = expr.KindInt, expr.KindFloat, expr.KindString
	return aggs, idx, kinds
}

func measuresOf(r *rand.Rand) []expr.Value {
	floats := []float64{1.5, -2.25, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e300, 7}
	out := []expr.Value{expr.Int(r.Int63n(2000) - 1000), expr.Float(floats[r.Intn(len(floats))]), expr.Str(fmt.Sprintf("s%d", r.Intn(9)))}
	for i := range out {
		if r.Intn(7) == 0 {
			out[i] = expr.Null()
		}
	}
	return out
}

// TestAddVectorsGroupsLikeAdd pins the grouping rules the code index
// must not change: NULLs group together, -0 with +0 and Int 3 with
// Float 3.0, Int 2⁵³ with Float 2⁵³ but not with Int 2⁵³+1, which
// shares its float64 image, and every NaN with every NaN.
func TestAddVectorsGroupsLikeAdd(t *testing.T) {
	keys := []expr.Value{
		expr.Float(math.Copysign(0, -1)), expr.Float(0), expr.Null(), expr.Int(3), expr.Float(3), expr.Float(math.NaN()),
		expr.Int(1 << 53), expr.Int(1<<53 + 1), expr.Null(), nanOf(0xfff8000000000000), expr.Float(0), expr.Str("3"),
		expr.Float(1 << 53),
	}
	aggs, idx, kinds := allAggs(1)
	r := rand.New(rand.NewSource(1))
	tc := &vectorCase{groupCols: 1, aggs: aggs, aggIdx: idx, kinds: kinds}
	for b := 0; b < 3; b++ {
		var rows [][]expr.Value
		for _, k := range keys {
			rows = append(rows, append([]expr.Value{k}, measuresOf(r)...))
		}
		tc.batches = append(tc.batches, rows)
	}
	tc.check(t)
	if rows, _ := tc.run(t, true); len(rows) != 7 {
		t.Fatalf("%d groups, want 7 (zero, NULL, three, 2^53, 2^53+1, NaN, the string)", len(rows))
	}
}

// TestAddVectorsMatchesAddRandom runs random batches through every
// index representation: the flat array (few small dictionaries), the
// map (the packed key outgrows the array), re-layouts as dictionaries
// grow between batches, and the index by the codes' bytes (seven wide
// columns: the key does not fit 62 bits).
func TestAddVectorsMatchesAddRandom(t *testing.T) {
	shapes := map[string]struct{ groupCols, card int }{
		"flat": {2, 5}, "map": {3, 300}, "global": {0, 1}, "wide": {7, 300},
	}
	reached := map[string]func(x *codeIndex, groups int) bool{
		"flat":   func(x *codeIndex, groups int) bool { return x.flat != nil && groups > 1 },
		"map":    func(x *codeIndex, groups int) bool { return x.table != nil && groups > 1 },
		"global": func(x *codeIndex, groups int) bool { return len(x.flat) == 1 },
		"wide":   func(x *codeIndex, groups int) bool { return x.wide != nil && groups > 1 },
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(shape.card)))
			aggs, idx, kinds := allAggs(shape.groupCols)
			tc := &vectorCase{groupCols: shape.groupCols, aggs: aggs, aggIdx: idx, kinds: kinds}
			for b := 0; b < 6; b++ {
				var rows [][]expr.Value
				for i := 0; i < 400; i++ {
					row := make([]expr.Value, 0, shape.groupCols+3)
					for g := 0; g < shape.groupCols; g++ {
						// Later batches draw on more values: dictionaries grow.
						k := r.Intn(1 + shape.card*(b+1)/6)
						switch {
						case g%2 == 0:
							row = append(row, expr.Str(fmt.Sprintf("k%d", k)))
						case k%11 == 0:
							row = append(row, expr.Null())
						default:
							row = append(row, expr.Int(int64(k)))
						}
					}
					rows = append(rows, append(row, measuresOf(r)...))
				}
				tc.batches = append(tc.batches, rows)
			}
			tc.check(t)
			if !reached[name](&tc.last.op.vec.index, tc.last.op.groups) {
				x := &tc.last.op.vec.index
				t.Fatalf("the %s index was not the one used: widths %v, flat %d, table %d, wide %d", name, x.width, len(x.flat), len(x.table), len(x.wide))
			}
		})
	}
}

// TestAddVectorsSumOverStrings holds the vector entry to the row
// fold's error for a SUM whose input is not numeric.
func TestAddVectorsSumOverStrings(t *testing.T) {
	rows := [][]expr.Value{{expr.Str("g"), expr.Null()}, {expr.Str("g"), expr.Str("oops")}}
	aggs := []xlm.AggSpec{{Func: "SUM", Col: "s", Out: "x"}}
	byRows, _ := NewHashAggregator([]int{0}, aggs, []int{1})
	byVecs, _ := NewHashAggregator([]int{0}, aggs, []int{1})
	groups := []Column{{Vec: storage.VectorOf(valuesAt(rows, 0))}}
	errRows := byRows.Add(rows)
	errVecs := byVecs.AddVectors(2, groups, []Column{{Vec: columnOf(rows, 1, expr.KindString)}})
	if errRows == nil || errVecs == nil || errRows.Error() != errVecs.Error() {
		t.Fatalf("rows: %v; vectors: %v", errRows, errVecs)
	}
}

// TestAggregatorDoesNotRetainVectors is TestAggregatorDoesNotRetainRows
// for the vector entry: it copies what it keeps, so the caller may
// refill the same vectors for the next batch — the OLAP fast path does.
func TestAggregatorDoesNotRetainVectors(t *testing.T) {
	aggs, idx, kinds := allAggs(1)
	r := rand.New(rand.NewSource(5))
	var batches [][][]expr.Value
	for b := 0; b < 3; b++ {
		var rows [][]expr.Value
		for i := 0; i < 50; i++ {
			rows = append(rows, append([]expr.Value{expr.Str(fmt.Sprintf("g%d", r.Intn(4+b)))}, measuresOf(r)...))
		}
		batches = append(batches, rows)
	}
	tc := &vectorCase{groupCols: 1, aggs: aggs, aggIdx: idx, kinds: kinds, batches: batches}
	want, _ := tc.run(t, true)

	a, err := NewHashAggregator([]int{0}, aggs, idx)
	if err != nil {
		t.Fatal(err)
	}
	group := &storage.Vector{}
	measures := make([]Column, len(aggs))
	scratch := map[int]*storage.Vector{}
	refill := func(dst, fresh *storage.Vector) {
		dst.Kind, dst.Dict = fresh.Kind, fresh.Dict // dictionaries are immutable
		dst.Ints = append(dst.Ints[:0], fresh.Ints...)
		dst.Floats = append(dst.Floats[:0], fresh.Floats...)
		dst.Codes = append(dst.Codes[:0], fresh.Codes...)
		dst.Nulls = append(dst.Nulls[:0], fresh.Nulls...)
		if fresh.Nulls == nil {
			dst.Nulls = nil
		}
	}
	for _, rows := range batches {
		refill(group, storage.VectorOf(valuesAt(rows, 0)))
		for i, ci := range idx {
			if ci < 0 {
				continue
			}
			if scratch[ci] == nil {
				scratch[ci] = &storage.Vector{}
			}
			// Refill the one vector per column in place.
			refill(scratch[ci], columnOf(rows, ci, kinds[ci]))
			measures[i] = Column{Vec: scratch[ci]}
		}
		if err := a.AddVectors(len(rows), []Column{{Vec: group}}, measures); err != nil {
			t.Fatal(err)
		}
		// Scribble over everything handed in.
		scribbled := []*storage.Vector{group}
		for _, v := range scratch {
			scribbled = append(scribbled, v)
		}
		for _, v := range scribbled {
			for i := range v.Ints {
				v.Ints[i] = -99
			}
			for i := range v.Floats {
				v.Floats[i] = -99
			}
			for i := range v.Codes {
				v.Codes[i] = 0
			}
		}
	}
	got := a.Result()
	if len(got) != len(want) {
		t.Fatalf("%d groups over reused vectors, %d over fresh ones", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !identical(want[i][j], got[i][j]) {
				t.Fatalf("row %d col %d: %s over reused vectors, %s over fresh ones", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestFinalizeCellsDropsGroups: a cell the selection leaves out is
// never finalised — an int SUM that overflows only in it fails nothing
// — and the picked ones answer in the selection's order; a nil or empty
// selection picks nothing, and cells never picked are every cell.
func TestFinalizeCellsDropsGroups(t *testing.T) {
	aggs := []xlm.AggSpec{{Out: "s", Func: "SUM", Col: "v"}}
	a, err := NewHashAggregator([]int{0}, aggs, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	keys := []expr.Value{expr.Str("a"), expr.Str("b"), expr.Str("c"), expr.Str("d"), expr.Str("b")}
	vals := intValues([]int64{1, math.MaxInt64, 3, 4, 1})
	if err := a.AddVectors(len(keys), []Column{{Vec: storage.VectorOf(keys)}}, []Column{{Vec: storage.VectorOf(vals)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Finalize(); err == nil {
		t.Fatal("b's SUM left int64 and nothing failed")
	}
	cells := a.Partials()
	if _, err := FinalizeCells(1, aggs, cells); err == nil {
		t.Fatal("b's SUM left int64 and FinalizeCells of every cell failed nothing")
	}
	if _, err := FinalizeCells(1, aggs, cells.Pick([]int32{0, 1})); err == nil {
		t.Fatal("b's SUM left int64 and FinalizeCells of b failed nothing")
	}
	for _, tc := range []struct {
		sel  []int32
		want string
	}{{[]int32{0, 2}, "a=1 c=3"}, {[]int32{3, 0}, "d=4 a=1"}, {nil, ""}, {[]int32{}, ""}} {
		rows, err := FinalizeCells(1, aggs, cells.Pick(tc.sel))
		if err != nil {
			t.Fatalf("%v: %v", tc.sel, err)
		}
		var out []string
		for _, row := range rows {
			out = append(out, row[0].AsString()+"="+row[1].String())
		}
		if got := strings.Join(out, " "); got != tc.want {
			t.Fatalf("%v finalised %q, want %q", tc.sel, got, tc.want)
		}
	}
}

// TestFinalizeCellsWithinAHashChain: a number hashes through its float
// image, so Int 2⁵³ and Int 2⁵³+1 share a hash chain and are two
// groups; a selection of some groups keeps exactly those, and every
// NaN, whatever its payload, is one group keyed math.NaN().
func TestFinalizeCellsWithinAHashChain(t *testing.T) {
	aggs := []xlm.AggSpec{{Out: "n", Func: "COUNT"}}
	a, err := NewHashAggregator([]int{0}, aggs, []int{-1})
	if err != nil {
		t.Fatal(err)
	}
	big, next := expr.Int(1<<53), expr.Int(1<<53+1)
	if big.Hash() != next.Hash() {
		t.Fatal("2^53 and 2^53+1 no longer share a hash: the test needs another chain")
	}
	keys := []expr.Value{big, next, expr.Float(1), next, nanOf(0x7ff8000000000001), nanOf(0xfff8000000000000), big}
	if err := a.AddVectors(len(keys), []Column{{Vec: storage.VectorOf(keys)}}, []Column{{}}); err != nil {
		t.Fatal(err)
	}
	// Partials order: first seen, so 2^53, 2^53+1, 1, NaN.
	cells := a.Partials()
	if cells.N != 4 {
		t.Fatalf("%d groups, want 4", cells.N)
	}
	rows, err := FinalizeCells(1, aggs, cells.Pick([]int32{1, 3}))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]expr.Value{{next, expr.Int(2)}, {expr.Float(math.NaN()), expr.Int(2)}}
	if msg := sameRows(rows, want); msg != "" {
		t.Fatal(msg)
	}
}

// checkFoldVectors folds rows (the group columns first) and checks the
// executor's vector exit against the rows the fold answers: each batch
// of groups [lo, hi), for several batch sizes, must be value for value
// and kind for kind the batch batchOf makes of result's rows [lo, hi),
// and finish must fail exactly where result fails.
func checkFoldVectors(t *testing.T, what string, groupCols int, aggs []xlm.AggSpec, aggIdx []int, rows [][]expr.Value) {
	t.Helper()
	fold := func() *aggregationOp {
		groupIdx := make([]int, groupCols)
		for i := range groupIdx {
			groupIdx[i] = i
		}
		a, err := NewHashAggregator(groupIdx, aggs, aggIdx)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Add(rows); err != nil {
			t.Fatal(err)
		}
		return a.op
	}
	want, wantErr := fold().result()
	var vals []expr.Value
	for _, size := range []int{1, 2, 3, 1024} {
		op := fold()
		n, err := op.finish()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: finish fails with %v, result with %v", what, err, wantErr)
		}
		if err != nil {
			return
		}
		if n != len(want) {
			t.Fatalf("%s: %d groups, result has %d rows", what, n, len(want))
		}
		for lo := 0; lo < n; lo += size {
			hi := min(lo+size, n)
			got := op.batch(lo, hi)
			var ref *Batch
			ref, vals = batchOf(want[lo:hi], groupCols+len(aggs), vals)
			if got.N != ref.N || len(got.Cols) != len(ref.Cols) {
				t.Fatalf("%s: batch [%d, %d) holds %d rows of %d columns, want %d of %d", what, lo, hi, got.N, len(got.Cols), ref.N, len(ref.Cols))
			}
			for c := range ref.Cols {
				if g, w := got.Cols[c].Vec, ref.Cols[c].Vec; g.Kind != w.Kind || g.Len() != w.Len() {
					t.Fatalf("%s: batch [%d, %d) column %d is %d %s rows, want %d %s", what, lo, hi, c, g.Len(), g.Kind, w.Len(), w.Kind)
				}
				for r := range ref.N {
					if g, w := got.Cols[c].Vec.Value(r), ref.Cols[c].Vec.Value(r); !identical(g, w) {
						t.Fatalf("%s: group %d column %d: %s %s, want %s %s", what, lo+r, c, g.Kind(), g, w.Kind(), w)
					}
				}
			}
		}
	}
}

// TestFoldVectorsMatchRows pins the vector exit to the row answer over
// what makes a column typed or not: keys kept in another representation
// than their entry (Int 3 beside Float 3.0), NaN and −0 keys, NULL,
// bool and mixed keys, SUMs and AVGs of nothing and SUMs whose groups
// differ in kind, COUNT(*), MIN and MAX over strings, no groups, and
// the int SUM overflow, which must be the same error.
func TestFoldVectorsMatchRows(t *testing.T) {
	I, F, S, B, N := expr.Int, expr.Float, expr.Str, expr.Bool, expr.Null()
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	rowsOf := func(keys [][]expr.Value, r *rand.Rand) [][]expr.Value {
		rows := make([][]expr.Value, len(keys))
		for i, k := range keys {
			rows[i] = append(append([]expr.Value(nil), k...), measuresOf(r)...)
		}
		return rows
	}
	r := rand.New(rand.NewSource(1))
	aggs2, idx2, _ := allAggs(2)
	checkFoldVectors(t, "Int 3 beside Float 3.0", 2, aggs2, idx2, rowsOf([][]expr.Value{
		{I(3), S("a")}, {F(3), S("b")}, {F(3), S("a")}, {I(4), S("c")}, {F(5.5), S("d")}, {I(3), S("b")}, {F(4), S("e")},
	}, r))
	checkFoldVectors(t, "NaN, −0 and NULL keys", 2, aggs2, idx2, rowsOf([][]expr.Value{
		{F(negZero), S("a")}, {F(0), S("a")}, {F(nan), N}, {F(math.Float64frombits(math.Float64bits(nan) ^ 1)), N},
		{N, S("b")}, {F(1.5), N}, {F(negZero), S("c")}, {N, N},
	}, r))
	checkFoldVectors(t, "bool and mixed keys", 2, aggs2, idx2, rowsOf([][]expr.Value{
		{B(true), I(1)}, {B(false), S("x")}, {N, I(1)}, {B(true), F(2.5)}, {B(false), N}, {B(true), S("y")},
	}, r))
	aggs1, idx1, _ := allAggs(1)
	var many [][]expr.Value
	for i := range 40 {
		many = append(many, []expr.Value{S(fmt.Sprintf("k%d", i%13))})
	}
	checkFoldVectors(t, "string keys, MIN and MAX over strings", 1, aggs1, idx1, rowsOf(many, r))
	aggs0, idx0, _ := allAggs(0)
	checkFoldVectors(t, "global", 0, aggs0, idx0, rowsOf([][]expr.Value{{}, {}, {}}, r))
	checkFoldVectors(t, "global over no rows", 0, aggs0, idx0, nil)
	checkFoldVectors(t, "no groups", 1, aggs1, idx1, nil)

	sums := []xlm.AggSpec{{Func: "SUM", Col: "m", Out: "s"}, {Func: "AVG", Col: "m", Out: "a"}, {Func: "COUNT", Out: "n"}}
	checkFoldVectors(t, "SUM and AVG of nothing, of ints and of floats", 1, sums, []int{1, 1, -1}, [][]expr.Value{
		{S("none"), N}, {S("ints"), I(2)}, {S("floats"), F(2.5)}, {S("ints"), I(-7)}, {S("both"), I(1)}, {S("both"), F(0.5)}, {S("none"), N},
	})
	checkFoldVectors(t, "only NULLs", 1, sums, []int{1, 1, -1}, [][]expr.Value{{S("a"), N}, {S("b"), N}})

	// The first overflow in group, then aggregate, order: group y's
	// second SUM, not group z's first.
	over := []xlm.AggSpec{{Func: "SUM", Col: "a", Out: "first"}, {Func: "SUM", Col: "b", Out: "second"}}
	checkFoldVectors(t, "int SUM overflow", 1, over, []int{1, 2}, [][]expr.Value{
		{S("x"), I(1), I(1)}, {S("y"), I(1), I(math.MaxInt64)}, {S("z"), I(math.MaxInt64), I(1)},
		{S("y"), I(1), I(1)}, {S("z"), I(1), I(1)},
	})
	checkFoldVectors(t, "int SUM that returns into int64", 1, over, []int{1, 2}, [][]expr.Value{
		{S("x"), I(math.MaxInt64), I(math.MinInt64)}, {S("x"), I(1), I(-1)}, {S("x"), I(-1), I(1)},
	})

	pool := []expr.Value{I(1), I(2), F(2), F(nan), F(negZero), F(0), S("a"), S("b"), B(true), N}
	for round := range 50 {
		k := 1 + r.Intn(3)
		aggs, idx, _ := allAggs(k)
		var keys [][]expr.Value
		for range r.Intn(60) {
			key := make([]expr.Value, k)
			for j := range key {
				key[j] = pool[r.Intn(len(pool)-j*3)] // later columns draw from fewer kinds
			}
			keys = append(keys, key)
		}
		checkFoldVectors(t, fmt.Sprint("random ", round), k, aggs, idx, rowsOf(keys, r))
	}
}
