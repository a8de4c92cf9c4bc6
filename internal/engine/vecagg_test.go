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
