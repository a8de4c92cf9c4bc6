package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// The answer's order (order.go) against the ETL Sort operator: the
// positions the ranking kernel sorts a set of keys into are the ones a
// stable sort of rows of the same keys by TotalOrder leaves them in,
// for key vectors read whole or through a selection, packed or compared
// column by column, and for an aggregator's groups ranked from its
// coders' dictionaries.

// orderPools are the values a key column draws from: ints around ±2⁵³
// and int64's ends, floats beside them (NaN payloads, ±0, ±2⁶³,
// infinities), strings sharing long prefixes, and bools.
var orderPools = struct{ ints, floats, strs, bools []expr.Value }{
	ints: []expr.Value{
		expr.Int(0), expr.Int(3), expr.Int(-7), expr.Int(1 << 53), expr.Int(1<<53 + 1), expr.Int(-(1 << 53)),
		expr.Int(-(1<<53 + 1)), expr.Int(math.MaxInt64), expr.Int(math.MinInt64), expr.Int(math.MaxInt64 - 1),
	},
	floats: []expr.Value{
		expr.Float(0), expr.Float(math.Copysign(0, -1)), expr.Float(3), expr.Float(2.5), expr.Float(1 << 53),
		expr.Float(-(1 << 53)), expr.Float(0x1p63), expr.Float(-0x1p63), expr.Float(math.Inf(1)), expr.Float(math.Inf(-1)),
		nanOf(0x7ff8000000000001), nanOf(0xfff8000000000000), nanOf(0x7ff0000000000002), expr.Float(-7),
	},
	strs: func() []expr.Value {
		long := strings.Repeat("prefix-", 12)
		return []expr.Value{expr.Str(""), expr.Str("3"), expr.Str("a"), expr.Str(long), expr.Str(long + "a"),
			expr.Str(long + "b"), expr.Str(long + "a\x00"), expr.Str(long[:len(long)-1])}
	}(),
	bools: []expr.Value{expr.Bool(false), expr.Bool(true)},
}

// byteSource reads a fuzz input a byte at a time, zeros past its end.
type byteSource struct {
	b  []byte
	at int
}

func (s *byteSource) next() int {
	if s.at >= len(s.b) {
		return 0
	}
	s.at++
	return int(s.b[s.at-1])
}

// orderColumn draws one key column of n rows: a typed int or float
// vector, or a coded one over a dictionary of several kinds — one that
// may hold Int 3 and Float 3.0, or an identical value twice, as
// entries of their own, NULL as an entry besides the bitmap's, and
// many entries no row names.
func orderColumn(s *byteSource, n int) *storage.Vector {
	shape := s.next() % 4
	vals := make([]expr.Value, n)
	var pool []expr.Value
	switch shape {
	case 0:
		pool = orderPools.ints
	case 1:
		pool = orderPools.floats
	case 2:
		pool = orderPools.strs
	default:
		pool = slices.Concat(orderPools.ints[:3], orderPools.floats[:4], orderPools.strs[:4], orderPools.bools)
	}
	// A few distinct values make ties; a byte may name a fresh int.
	for i := range vals {
		switch b := s.next(); {
		case b%7 == 0:
			vals[i] = expr.Null()
		case b%11 == 1 && shape == 0:
			vals[i] = expr.Int(int64(b) << 50)
		default:
			vals[i] = pool[b%len(pool)]
		}
	}
	if shape < 2 && s.next()%2 == 0 {
		if kind := storage.KindOf(vals); kind == expr.KindInt || kind == expr.KindFloat {
			return storage.VectorOf(vals)
		}
	}
	// Coded: each row its own entry, every third entry repeated by
	// another row, a NULL row now and then coded at a NULL entry.
	v := &storage.Vector{Kind: storage.KindOf(vals), Codes: make([]uint32, n)}
	if v.Kind == expr.KindInt || v.Kind == expr.KindFloat {
		v.Kind = expr.KindNull // the mixed form holds any kinds
	}
	for i, x := range vals {
		switch {
		case x.IsNull() && s.next()%2 == 0:
			setNull(v, i, n)
		case i > 0 && i%3 == 0 && vals[i-1].Identical(x) && !x.IsNull():
			v.Codes[i] = v.Codes[i-1]
		default:
			v.Codes[i] = uint32(len(v.Dict))
			v.Dict = append(v.Dict, x)
		}
	}
	if s.next()%3 == 0 { // a dictionary far larger than its rows use
		v.Dict = append(v.Dict, unusedEntries(n)...)
	}
	return v
}

// unusedEntries are more distinct values than a dictionary of keys at
// n positions is ranked entry by entry with.
func unusedEntries(n int) []expr.Value {
	out := make([]expr.Value, 8*n+65)
	for i := range out {
		out[i] = expr.Str(fmt.Sprintf("unused %d", i))
	}
	return out
}

// adopted is key column v read as a join index hands a build column
// on: numbered by identity over a build side that holds v's n values
// and many more no key names, so its dictionary is far larger than the
// groups.
func adopted(v *storage.Vector, n int) Column {
	vals := make([]expr.Value, n)
	for i := range vals {
		vals[i] = v.Value(i)
	}
	build := storage.VectorOf(append(vals, unusedEntries(n)...))
	var coder dictCoder
	codes := coder.code(Column{Vec: build}, build.Len(), nil)
	return Column{Vec: build, Sel: identity(nil, n), Group: &GroupCodes{Codes: codes, Dict: coder.dict}}
}

// stableOrder is the order the ETL Sort operator leaves the positions
// at in: rows of each position and its keys, sorted stably by the keys.
func stableOrder(keys []*storage.Vector, at []int32) []int32 {
	rows := make([][]expr.Value, len(at))
	for i, p := range at {
		rows[i] = []expr.Value{expr.Int(int64(p))}
		for _, k := range keys {
			rows[i] = append(rows[i], k.Value(int(p)))
		}
	}
	op := &sortOp{idx: Leading(len(keys) + 1)[1:], rows: rows}
	want := make([]int32, len(at))
	for i, row := range op.result() {
		want[i] = int32(row[0].AsInt())
	}
	return want
}

// checkKeyOrder draws one to four key columns from data and checks the
// kernel's order of them, read whole and through a selection, packed
// and compared column by column, and an aggregator's answer over them,
// its columns coded by itself or adopted.
func checkKeyOrder(t *testing.T, data []byte) {
	s := &byteSource{b: data}
	k, n := 1+s.next()%4, s.next()%70
	keys := make([]*storage.Vector, k)
	for j := range keys {
		keys[j] = orderColumn(s, n)
	}
	all := identity(nil, n)
	sel := make([]int32, 0, n) // some positions, in an order of their own, some twice
	for range s.next() % (n + 1) {
		sel = append(sel, int32(s.next()%max(n, 1)))
	}
	if n == 0 {
		sel = sel[:0]
	}
	for _, at := range [][]int32{all, sel} {
		want := stableOrder(keys, at)
		r := newKeyRanks(len(at), len(keys))
		for _, v := range keys {
			r.vector(v, at)
		}
		for _, pack := range []bool{true, false} {
			if pack && !r.packs() {
				continue
			}
			got := r.order(pack)
			for i, p := range got {
				got[i] = at[p]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d keys at %v (packed %v):\ngot  %v\nwant %v\nkeys %v", k, at, pack, got, want, describeKeys(keys))
			}
		}
		c := Cells{N: n, Keys: keys}
		if len(at) != n || !slices.Equal(at, all) {
			c = c.Pick(at)
		}
		if got := c.Order(); !slices.Equal(got, want) {
			t.Fatalf("Cells.Order at %v: got %v, want %v", at, got, want)
		}
	}
	// The aggregator ranks from its coders' dictionaries: its own, and
	// adopted numberings far larger than the groups.
	for _, adopt := range []bool{false, true} {
		a := newCounter(t, k)
		groups := make([]Column, k)
		for j, v := range keys {
			groups[j] = Column{Vec: v}
			if adopt {
				groups[j] = adopted(v, n)
			}
		}
		if err := a.AddVectors(n, groups, []Column{{}}); err != nil {
			t.Fatal(err)
		}
		rows, err := a.op.result()
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Answer(nil)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, fmt.Sprintf("the aggregator's answer (adopted %v)", adopt), got, SortRowsBy(rows, Leading(k)))
	}
}

func describeKeys(keys []*storage.Vector) string {
	var b strings.Builder
	for _, v := range keys {
		fmt.Fprintf(&b, "\n  kind %d:", v.Kind)
		for i := range v.Len() {
			fmt.Fprintf(&b, " %s", bitsOf(v.Value(i)))
		}
	}
	return b.String()
}

// FuzzKeyOrder: the kernel's order of fuzzed keys is the stable sort's.
func FuzzKeyOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 12, 0, 3, 3, 3, 9, 9, 0, 1, 2, 3})
	f.Add([]byte{3, 40, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 2, 2, 1, 1, 0, 0})
	f.Add([]byte{1, 30, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 2, 4, 6, 8, 10, 12, 14})
	f.Fuzz(checkKeyOrder)
}

// TestQuickKeyOrder runs the fuzz target's check on random inputs.
func TestQuickKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for range 3000 {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		checkKeyOrder(t, data)
	}
}

// TestKeyOrderPastPackedBits: four columns of 9 000 keys, each of
// thousands of values, need 13 bits apiece and 14 for the position, 66
// in all; the positions are compared column by column, and the order
// is still the stable sort's, as is the aggregator's answer over them.
func TestKeyOrderPastPackedBits(t *testing.T) {
	const n = 9000
	rng := rand.New(rand.NewSource(9))
	keys := make([]*storage.Vector, 4)
	cols := make([][]expr.Value, len(keys))
	for j := range keys {
		for range n {
			var v expr.Value
			switch j {
			case 0:
				v = expr.Int(rng.Int63n(5000) - 2500)
			case 1:
				v = expr.Float(float64(rng.Intn(6000)) / 4)
			default:
				v = expr.Str(fmt.Sprintf("k%05d", rng.Intn(5000)))
			}
			cols[j] = append(cols[j], v)
		}
		keys[j] = storage.VectorOf(cols[j])
	}
	at := identity(nil, n)
	r := newKeyRanks(n, len(keys))
	for _, v := range keys {
		r.vector(v, at)
	}
	if r.packs() {
		t.Fatalf("ranks of %v fit a packed key", r.counts)
	}
	if got, want := (Cells{N: n, Keys: keys}).Order(), stableOrder(keys, at); !slices.Equal(got, want) {
		t.Fatal("the order compared column by column is not the stable sort's")
	}
	a := newCounter(t, len(keys))
	addColumns(t, a, cols...)
	got, err := a.Answer(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, "the aggregator's answer", got, SortRowsBy(a.Result(), Leading(len(keys))))
}

// TestAnswerFailsInGroupOrder: two int SUMs overflow, each in another
// group, and the group met first sorts last. The answer, finalised in
// sorted order, fails at the SUM the first-seen finalisation fails at:
// the first in group order, then aggregate order.
func TestAnswerFailsInGroupOrder(t *testing.T) {
	aggs := []xlm.AggSpec{{Func: "SUM", Col: "x", Out: "sx"}, {Func: "SUM", Col: "y", Out: "sy"}}
	a, err := NewHashAggregator([]int{0}, aggs, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	big := expr.Int(math.MaxInt64)
	if err := a.Add([][]expr.Value{
		{expr.Str("b"), big, expr.Int(0)}, {expr.Str("b"), expr.Int(1), expr.Int(0)},
		{expr.Str("a"), expr.Int(0), big}, {expr.Str("a"), expr.Int(0), expr.Int(1)},
	}); err != nil {
		t.Fatal(err)
	}
	_, want := a.op.result()
	if want == nil || !strings.Contains(want.Error(), `"sx"`) {
		t.Fatalf("the first-seen finalisation fails with %v, want the overflow of sx", want)
	}
	if _, err := a.Answer(nil); fmt.Sprint(err) != want.Error() {
		t.Errorf("Answer fails with %v, want %v", err, want)
	}
	if _, err := a.Partials().Answer(aggs, nil); fmt.Sprint(err) != want.Error() {
		t.Errorf("the cells' Answer fails with %v, want %v", err, want)
	}
}
