package engine

import (
	"fmt"
	"math"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// The grouping's numbering by identity, each test against answers
// written out by hand: a group keeps its first row's representation,
// the dense window widens and turns sparse, keys sit at int64's ends,
// runs of one key hold NULL, NaN payloads and ±0 and cross batches, a
// join index's numbering is adopted and then met by plain values, and
// a tuple wider than 62 bits is indexed.

var countAll = []xlm.AggSpec{{Func: "COUNT", Out: "n"}}

// newCounter is a COUNT(*) aggregator over k group columns.
func newCounter(t *testing.T, k int) *HashAggregator {
	t.Helper()
	a, err := NewHashAggregator(Leading(k), countAll, []int{-1})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// addColumns folds one batch given as columns of values, each column a
// vector as storage.VectorOf makes it.
func addColumns(t *testing.T, a *HashAggregator, cols ...[]expr.Value) {
	t.Helper()
	groups := make([]Column, len(cols))
	for g, vals := range cols {
		groups[g] = Column{Vec: storage.VectorOf(vals)}
	}
	if err := a.AddVectors(len(cols[0]), groups, []Column{{}}); err != nil {
		t.Fatal(err)
	}
}

// counted is the rows of a COUNT(*) answer: the key values, then the
// count.
func counted(n int64, keys ...expr.Value) []expr.Value {
	return append(keys, expr.Int(n))
}

func checkRows(t *testing.T, what string, got, want [][]expr.Value) {
	t.Helper()
	if msg := sameRows(got, want); msg != "" {
		t.Errorf("%s: %s\ngot  %v\nwant %v", what, msg, got, want)
	}
}

// TestGroupKeepsItsRepresentation: column a meets Float 3.0 in group
// (3, 1) first, then Int 3 in group (3, 2). Each group keeps the
// representation its own first row held, whichever the column met
// first — through Add, AddVectors over typed and mixed vectors and
// over a numbered column, the merge of Partials, and a fold dealt to
// two shards and merged. A column of one kind keeps none.
func TestGroupKeepsItsRepresentation(t *testing.T) {
	rows := [][]expr.Value{
		{expr.Float(3), expr.Int(1)}, {expr.Int(3), expr.Int(2)},
		{expr.Int(3), expr.Int(1)}, {expr.Float(3), expr.Int(2)},
	}
	want := [][]expr.Value{counted(2, expr.Float(3), expr.Int(1)), counted(2, expr.Int(3), expr.Int(2))}

	byRows := newCounter(t, 2)
	if err := byRows.Add(rows); err != nil {
		t.Fatal(err)
	}
	checkRows(t, "Add", byRows.Result(), want)

	mixed := newCounter(t, 2)
	addColumns(t, mixed, valuesAt(rows, 0), valuesAt(rows, 1))
	checkRows(t, "AddVectors, one mixed batch", mixed.Result(), want)

	typed := newCounter(t, 2)
	for _, r := range rows { // a float vector, then an int vector, ...
		addColumns(t, typed, r[:1], r[1:])
	}
	checkRows(t, "AddVectors, typed batches", typed.Result(), want)

	merged, err := MergeCells(2, countAll, typed.Partials())
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, "Partials merged", merged.Result(), want)

	shards := []*HashAggregator{newCounter(t, 2), newCounter(t, 2)}
	for i, r := range rows {
		if err := shards[i%2].Add([][]expr.Value{r}); err != nil {
			t.Fatal(err)
		}
	}
	gathered, err := MergeCells(2, countAll, shards[0].Partials(), shards[1].Partials())
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, "two shards merged", gathered.Result(), want)

	// Float 3.0 numbered first, as a join index hands a build column on;
	// then a typed Int batch whose Int 3 is that entry's identity.
	numbered := newCounter(t, 2)
	first := Column{Vec: storage.VectorOf(rows[0][:1]), Group: &GroupCodes{Codes: []uint32{0}, Dict: rows[0][:1]}}
	if err := numbered.AddVectors(1, []Column{first, {Vec: storage.VectorOf(rows[0][1:])}}, []Column{{}}); err != nil {
		t.Fatal(err)
	}
	addColumns(t, numbered, rows[1][:1], rows[1][1:])
	checkRows(t, "AddVectors, a numbered batch then a typed one",
		numbered.Result(), [][]expr.Value{counted(1, expr.Float(3), expr.Int(1)), counted(1, expr.Int(3), expr.Int(2))})

	// A column whose coder holds ints alone keeps no row's representation.
	oneKind := newCounter(t, 2)
	for _, r := range rows {
		addColumns(t, oneKind, []expr.Value{expr.Int(3)}, r[1:])
	}
	checkRows(t, "AddVectors, ints alone", oneKind.Result(), [][]expr.Value{counted(2, expr.Int(3), expr.Int(1)), counted(2, expr.Int(3), expr.Int(2))})
	if oneKind.op.reps != nil {
		t.Errorf("a one-kind column kept representations: %v", oneKind.op.reps)
	}
}

// TestDenseWindowWidensThenTurnsSparse: an int column's window widens
// downward and upward and keeps every code, then a far key moves its
// ints to the map, which keeps them too.
func TestDenseWindowWidensThenTurnsSparse(t *testing.T) {
	a := newCounter(t, 1)
	c := &a.op.vec.coders[0]
	ints := func(ks ...int64) []expr.Value {
		vals := make([]expr.Value, len(ks))
		for i, k := range ks {
			vals[i] = expr.Int(k)
		}
		return vals
	}
	addColumns(t, a, ints(1000, 1000, 999))
	if c.win == nil || c.lo > 999 || c.sparse {
		t.Fatalf("after 1000, 999: window from %d, %d long, sparse %v", c.lo, len(c.win), c.sparse)
	}
	addColumns(t, a, ints(1100, 500, 999))
	if c.win == nil || c.lo > 500 || c.lo+int64(len(c.win)) <= 1100 || c.sparse {
		t.Fatalf("after 1100, 500: window from %d, %d long, sparse %v", c.lo, len(c.win), c.sparse)
	}
	addColumns(t, a, ints(1e12, 1000, -5, 1100))
	if c.win != nil || !c.sparse {
		t.Fatalf("after 10¹²: window %d long, sparse %v", len(c.win), c.sparse)
	}
	checkRows(t, "counts", a.Result(), [][]expr.Value{
		counted(3, expr.Int(1000)), counted(2, expr.Int(999)), counted(2, expr.Int(1100)),
		counted(1, expr.Int(500)), counted(1, expr.Int(1e12)), counted(1, expr.Int(-5)),
	})
}

// TestKeysAtInt64Ends: ints at and beside int64's ends, and the floats
// −2⁶³ (which is MinInt64 exactly) and 2⁶³ (which is no int64), after
// ints near MaxInt64 started the column.
func TestKeysAtInt64Ends(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	rows := [][]expr.Value{
		{expr.Int(maxI - 1)}, {expr.Int(maxI)}, {expr.Int(5)}, {expr.Int(minI)}, {expr.Int(minI + 1)},
		{expr.Float(-0x1p63)}, {expr.Float(0x1p63)}, {expr.Int(maxI)}, {expr.Int(minI + 1)},
	}
	want := [][]expr.Value{
		counted(1, expr.Int(maxI-1)), counted(2, expr.Int(maxI)), counted(1, expr.Int(5)), counted(2, expr.Int(minI)),
		counted(2, expr.Int(minI+1)), counted(1, expr.Float(0x1p63)),
	}
	byRows := newCounter(t, 1)
	if err := byRows.Add(rows); err != nil {
		t.Fatal(err)
	}
	checkRows(t, "Add", byRows.Result(), want)
	byVectors := newCounter(t, 1)
	addColumns(t, byVectors, valuesAt(rows[:5], 0))  // ints
	addColumns(t, byVectors, valuesAt(rows[5:7], 0)) // floats
	addColumns(t, byVectors, valuesAt(rows[7:], 0))
	checkRows(t, "AddVectors", byVectors.Result(), want)
}

// TestRunsOfOneIdentity: runs of one key — NaNs of several payloads,
// −0 and +0 (and Int 0), NULLs — and a run that goes on across a batch
// boundary, each one group, keyed canonically.
func TestRunsOfOneIdentity(t *testing.T) {
	a := newCounter(t, 2)
	col := func(vals ...expr.Value) []expr.Value { return vals }
	ones := func(n int) []expr.Value {
		vals := make([]expr.Value, n)
		for i := range vals {
			vals[i] = expr.Int(1)
		}
		return vals
	}
	addColumns(t, a, col(nanOf(0x7ff8000000000001), nanOf(0xfff8000000000000), expr.Float(math.NaN()),
		expr.Float(math.Copysign(0, -1))), ones(4))
	addColumns(t, a, col(expr.Float(0), expr.Float(0), expr.Null(), expr.Null()), ones(4))
	addColumns(t, a, col(expr.Null(), nanOf(0x7ff8000000000002)), ones(2))
	addColumns(t, a, col(expr.Int(0), expr.Int(0)), ones(2))
	checkRows(t, "runs", a.Result(), [][]expr.Value{
		counted(4, expr.Float(math.NaN()), expr.Int(1)), counted(5, expr.Float(0), expr.Int(1)),
		counted(3, expr.Null(), expr.Int(1)),
	})
}

// TestRunKeyDoesNotOutliveALayout: the last row of one batch and the
// first row of the next are different tuples whose packed keys are
// equal, the first under the old layout and the second under the one
// the second batch's new values force: a (a0, b4) is packed 4<<4, and
// after a's dictionary outgrows 16 entries (a0, b1) is packed 1<<6.
// The second row is a group of its own.
func TestRunKeyDoesNotOutliveALayout(t *testing.T) {
	a := newCounter(t, 2)
	str := func(p string, i int) expr.Value { return expr.Str(fmt.Sprintf("%s%d", p, i)) }
	var as, bs []expr.Value
	var want [][]expr.Value
	for i := range 4 {
		as, bs = append(as, str("a", i)), append(bs, str("b", i))
		want = append(want, counted(1, str("a", i), str("b", i)))
	}
	as, bs = append(as, str("a", 0)), append(bs, str("b", 4))
	want = append(want, counted(1, str("a", 0), str("b", 4)))
	addColumns(t, a, as, bs)
	as, bs = []expr.Value{str("a", 0)}, []expr.Value{str("b", 1)}
	want = append(want, counted(1, str("a", 0), str("b", 1)))
	for i := 4; i <= 16; i++ {
		as, bs = append(as, str("a", i)), append(bs, str("b", 0))
		want = append(want, counted(1, str("a", i), str("b", 0)))
	}
	addColumns(t, a, as, bs)
	if x := &a.op.vec.index; x.shift[1] != 6 {
		t.Fatalf("b's field starts at bit %d, want 6: the case no longer packs as it says", x.shift[1])
	}
	checkRows(t, "groups", a.Result(), want)
}

// TestAdoptedNumberingThenPlainValues: a group column's first batch
// comes numbered by a join index (adopted as the column's codes), a
// later batch holds plain values of the same identities and new ones,
// and a third is numbered by another join index.
func TestAdoptedNumberingThenPlainValues(t *testing.T) {
	build := func(vals ...expr.Value) (*JoinIndex, *GroupCodes) {
		keys := make([]expr.Value, len(vals))
		for i := range keys {
			keys[i] = expr.Int(int64(i))
		}
		x := NewJoinIndex(2, 1, len(vals))
		kv := storage.VectorOf(keys)
		x.Add(len(vals), []*storage.Vector{kv, storage.VectorOf(vals)}, []*storage.Vector{kv})
		if err := x.Finish(); err != nil {
			t.Fatal(err)
		}
		return x, x.GroupCodes(1)
	}
	x, codes := build(expr.Float(3), expr.Str("s"), expr.Int(3), expr.Null(), expr.Str("t"))
	a := newCounter(t, 1)
	fold := func(col Column, n int) {
		t.Helper()
		if err := a.AddVectors(n, []Column{col}, []Column{{}}); err != nil {
			t.Fatal(err)
		}
	}
	// Build rows 2 (Int 3), 1, 3 (NULL), 0 (Float 3.0), 1.
	fold(Column{Vec: x.Cols[1], Sel: []int32{2, 1, 3, 0, 1}, Group: codes}, 5)
	if c := &a.op.vec.coders[0]; c.adopted != codes {
		t.Fatal("the join index's numbering was not adopted")
	}
	addColumns(t, a, []expr.Value{expr.Str("u"), expr.Float(3), expr.Str("s"), expr.Null(), expr.Str("t")})
	y, other := build(expr.Str("t"), expr.Str("v"), expr.Int(3))
	fold(Column{Vec: y.Cols[1], Sel: []int32{0, 1, 2}, Group: other}, 3)
	checkRows(t, "groups", a.Result(), [][]expr.Value{
		counted(4, expr.Int(3)), counted(3, expr.Str("s")), counted(2, expr.Null()),
		counted(1, expr.Str("u")), counted(2, expr.Str("t")), counted(1, expr.Str("v")),
	})
}

// TestAdoptedNumberingOutgrowsItsField: an adopted numbering of three
// values gets a bit field of two bits, without the room to grow a
// coder's own dictionary gets; plain values then grow the dictionary
// past the field, the index is laid out again, and every row keeps its
// group — the answer is Add's over the same rows.
func TestAdoptedNumberingOutgrowsItsField(t *testing.T) {
	ints := func(vals ...int64) []expr.Value {
		out := make([]expr.Value, len(vals))
		for i, v := range vals {
			out[i] = expr.Int(v)
		}
		return out
	}
	dim := ints(10, 11, 12)
	x := NewJoinIndex(2, 1, len(dim))
	kv := storage.VectorOf(ints(0, 1, 2))
	x.Add(len(dim), []*storage.Vector{kv, storage.VectorOf(dim)}, []*storage.Vector{kv})
	if err := x.Finish(); err != nil {
		t.Fatal(err)
	}
	a, ref := newCounter(t, 2), newCounter(t, 2)
	sel := []int32{2, 0, 1, 0}
	second := ints(7, 7, 8, 8)
	if err := a.AddVectors(len(sel), []Column{{Vec: x.Cols[1], Sel: sel, Group: x.GroupCodes(1)}, {Vec: storage.VectorOf(second)}}, []Column{{}}); err != nil {
		t.Fatal(err)
	}
	if w := a.op.vec.index.width[0]; w != 2 {
		t.Fatalf("the adopted column's field is %d bits, want 2", w)
	}
	var rows [][]expr.Value
	for i, s := range sel {
		rows = append(rows, []expr.Value{dim[s], second[i]})
	}
	grown, grownSecond := ints(13, 14, 15, 10, 16, 12), ints(8, 7, 8, 8, 7, 9)
	addColumns(t, a, grown, grownSecond)
	for i := range grown {
		rows = append(rows, []expr.Value{grown[i], grownSecond[i]})
	}
	if w := a.op.vec.index.width[0]; w <= 2 {
		t.Fatalf("the grown column's field is still %d bits", w)
	}
	if err := ref.Add(rows); err != nil {
		t.Fatal(err)
	}
	checkRows(t, "groups", a.Result(), ref.Result())
	got, err := a.Answer(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, "answer", got, SortRowsBy(ref.Result(), Leading(2)))
}

// TestWideTupleIsIndexed: seven string columns of 600 values each need
// 11 bits apiece, 77 in all; every tuple is folded twice, a batch
// apart, and is one group of two rows.
func TestWideTupleIsIndexed(t *testing.T) {
	const k, n = 7, 600
	a := newCounter(t, k)
	cols := make([][]expr.Value, k)
	var want [][]expr.Value
	for i := range n {
		key := make([]expr.Value, k)
		for j := range cols {
			key[j] = expr.Str(fmt.Sprintf("c%d-%d", j, i))
			cols[j] = append(cols[j], key[j])
		}
		want = append(want, counted(2, key...))
	}
	addColumns(t, a, cols...)
	addColumns(t, a, cols...)
	if a.op.vec.index.wide == nil {
		t.Fatalf("widths %v: the tuple fits a packed key", a.op.vec.index.width)
	}
	checkRows(t, "groups", a.Result(), want)
}

// groupPools are the values a fuzzed group column draws from, by kind:
// dense ints, sparse ints (int64's ends, ints beside ±2⁵³), floats
// (NaN payloads, ±0, floats that are ints exactly, ±2⁶³, infinities),
// strings, and a mixed pool holding one identity as both Int and
// Float. Any column draws NULLs too.
var groupPools = [][]expr.Value{
	nil, // dense ints: 1000 + b%64, made on the fly
	{
		expr.Int(0), expr.Int(1), expr.Int(-1), expr.Int(two53), expr.Int(two53 + 1), expr.Int(-two53),
		expr.Int(-two53 - 1), expr.Int(math.MaxInt64), expr.Int(math.MinInt64), expr.Int(math.MinInt64 + 1),
		expr.Int(1e12), expr.Int(-1e12), expr.Int(7),
	},
	{
		expr.Float(math.NaN()), nanOf(0x7ff8000000000001), nanOf(0xfff8000000000000), expr.Float(0),
		expr.Float(math.Copysign(0, -1)), expr.Float(3), expr.Float(2.5), expr.Float(float64(two53)),
		expr.Float(0x1p63), expr.Float(-0x1p63), expr.Float(math.Inf(1)), expr.Float(math.Inf(-1)), expr.Float(-7),
	},
	{expr.Str(""), expr.Str("a"), expr.Str("b"), expr.Str("3"), expr.Str("a b"), expr.Str("NaN")},
	{
		expr.Int(3), expr.Float(3), expr.Int(0), expr.Float(math.Copysign(0, -1)), nanOf(0x7ff8000000000003),
		expr.Str("3"), expr.Bool(true), expr.Bool(false), expr.Int(two53 + 1), expr.Float(float64(two53)),
	},
}

// FuzzGroupIdentity folds fuzzed rows of one to three group columns,
// each of a fuzzed kind, in batches that go each its own way: Add,
// AddVectors over plain vectors, over coded vectors (a dictionary with
// an entry per row, as a run-length page has), over columns pre-coded
// by one numbering shared by every such batch (as a join index's
// GroupCodes is), and Absorb of a fresh aggregator's Partials. The
// groups, their first-seen order, their keys' representations and
// their counts must be a reference's that groups by expr.Key and keeps
// a group's first row canonical; so must a merge of the Partials.
func FuzzGroupIdentity(f *testing.F) {
	f.Add([]byte{2, 4, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{3, 0, 2, 3, 9, 30, 31, 32, 33, 34, 35, 36, 37, 11, 12, 13, 14, 15, 16, 99, 77, 55, 33, 22, 11})
	f.Add([]byte{1, 2, 2, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 1, 4, 0, 1, 2, 3, 4, 0})
	f.Fuzz(checkGroupIdentity)
}

// checkGroupIdentity is FuzzGroupIdentity's check of one input.
func checkGroupIdentity(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	k := 1 + next()%3
	kinds := make([]int, k)
	for j := range kinds {
		kinds[j] = next() % len(groupPools)
	}
	var rows [][]expr.Value
	for len(data) >= k && len(rows) < 200 {
		row := make([]expr.Value, k)
		for j, kind := range kinds {
			switch b := next(); {
			case b%11 == 10:
				row[j] = expr.Null()
			case kind == 0:
				row[j] = expr.Int(1000 + int64(b%64))
			default:
				row[j] = groupPools[kind][b%len(groupPools[kind])]
			}
		}
		rows = append(rows, row)
	}
	// The reference: groups by the tuple of identities.
	type refGroup struct {
		key []expr.Value
		n   int64
	}
	var ref []refGroup
	byKey := map[string]int{}
	for _, row := range rows {
		ids := make([]expr.Key, k)
		for j, v := range row {
			ids[j] = v.Key()
		}
		g, ok := byKey[fmt.Sprint(ids)]
		if !ok {
			g = len(ref)
			byKey[fmt.Sprint(ids)] = g
			key := make([]expr.Value, k)
			for j, v := range row {
				key[j] = v.Canonical()
			}
			ref = append(ref, refGroup{key: key})
		}
		ref[g].n++
	}
	// One numbering of every row, which the pre-coded batches share.
	shared := make([]*storage.Vector, k)
	numbered := make([]*GroupCodes, k)
	for j := range shared {
		shared[j] = storage.VectorOf(valuesAt(rows, j))
		var coder dictCoder
		numbered[j] = &GroupCodes{Codes: coder.code(Column{Vec: shared[j]}, len(rows), nil), Dict: coder.dict}
	}
	a := newCounter(t, k)
	for at := 0; at < len(rows); {
		n := min(1+next()%24, len(rows)-at)
		batch, way := rows[at:at+n], next()%5
		groups := make([]Column, k)
		for j := range groups {
			switch way {
			case 1:
				groups[j] = Column{Vec: storage.VectorOf(valuesAt(batch, j))}
			case 2:
				groups[j] = Column{Vec: codedVector(valuesAt(batch, j))}
			case 3:
				groups[j] = Column{Vec: shared[j], Sel: leading32(at, n), Group: numbered[j]}
			}
		}
		var err error
		switch way {
		case 0:
			err = a.Add(batch)
		case 4:
			part := newCounter(t, k)
			if err = part.Add(batch); err == nil {
				err = a.Absorb(part.Partials())
			}
		default:
			err = a.AddVectors(n, groups, []Column{{}})
		}
		if err != nil {
			t.Fatal(err)
		}
		at += n
	}
	want := make([][]expr.Value, len(ref))
	for g, r := range ref {
		want[g] = counted(r.n, r.key...)
	}
	if len(rows) == 0 {
		return
	}
	if msg := sameRows(a.Result(), want); msg != "" {
		t.Fatalf("kinds %v: %s", kinds, msg)
	}
	merged, err := MergeCells(k, countAll, a.Partials())
	if err != nil {
		t.Fatal(err)
	}
	if msg := sameRows(merged.Result(), want); msg != "" {
		t.Fatalf("kinds %v, Partials merged: %s", kinds, msg)
	}
}

// leading32 is the positions at, at+1, …, at+n-1.
func leading32(at, n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(at + i)
	}
	return sel
}

// codedVector is vals in the coded form, every value its own entry of
// a dictionary that repeats values: the typed form for strings and
// bools, the mixed form for numbers.
func codedVector(vals []expr.Value) *storage.Vector {
	kind := storage.KindOf(vals)
	if kind == expr.KindInt || kind == expr.KindFloat {
		kind = expr.KindNull
	}
	v := &storage.Vector{Kind: kind, Codes: make([]uint32, len(vals))}
	for r, x := range vals {
		if x.IsNull() {
			if v.Nulls == nil {
				v.Nulls = make([]uint64, (len(vals)+63)/64)
			}
			v.Nulls[r>>6] |= 1 << (uint(r) & 63)
			continue
		}
		v.Codes[r] = uint32(len(v.Dict))
		v.Dict = append(v.Dict, x)
	}
	return v
}
