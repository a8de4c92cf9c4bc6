package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// keyPools are the values a group column draws from: a mixed pool
// (NULL, NaNs of several payloads, −0 and +0, Int 3 next to Float 3.0,
// Int 2⁵³+1 next to Float 2⁵³, strings and "") and one per kind, so
// that string, int and float key columns all occur. Early entries are
// drawn most often.
var keyPools = [][]expr.Value{
	{
		expr.Null(), expr.Float(math.NaN()), expr.Float(math.Copysign(0, -1)), expr.Float(0), expr.Int(0),
		expr.Int(3), expr.Float(3), expr.Int(1<<53 + 1), expr.Float(1 << 53), nanOf(0xfff8000000000000),
		expr.Str("3"), expr.Str("a"), expr.Str(""), expr.Float(2.5), expr.Int(-7),
	},
	{expr.Str("a"), expr.Null(), expr.Str(""), expr.Str("3"), expr.Str("b"), expr.Str("a b"), expr.Str("A")},
	{
		expr.Int(3), expr.Null(), expr.Int(1 << 53), expr.Int(1<<53 + 1), expr.Int(0), expr.Int(-(1<<53 + 1)),
		expr.Int(-(1 << 53)), expr.Int(-7), expr.Int(math.MaxInt64), expr.Int(math.MaxInt64 - 1),
	},
	{
		expr.Float(3), nanOf(0x7ff8000000000001), expr.Float(math.Copysign(0, -1)), expr.Null(), expr.Float(0),
		expr.Float(math.NaN()), nanOf(0xfff8000000000000), expr.Float(1 << 53), expr.Float(2.5),
	},
}

// nanOf is the NaN of these bits.
func nanOf(bits uint64) expr.Value { return expr.Float(math.Float64frombits(bits)) }

// dirtyFold is a fold over dirty keys, with the groups a linear scan by
// the grouping rule finds in it — which row belongs to which group, and
// the groups' first-seen order — not the kernel.
type dirtyFold struct {
	groupCols int
	aggs      []xlm.AggSpec
	aggIdx    []int
	a         *HashAggregator
	rows      [][]expr.Value
	groupOf   []int          // per row: its group
	firsts    [][]expr.Value // per group: its key, as first seen
}

// newDirtyFold draws up to 80 rows and folds them in random batches
// that mix Add and AddVectors. An AddVectors batch may hand a group
// column over numbered (Column.Group) by a numbering of its own, so the
// aggregator's numbering switches mid-fold.
func newDirtyFold(t *testing.T, r *rand.Rand) *dirtyFold {
	d := &dirtyFold{groupCols: r.Intn(3)}
	var kinds []expr.Kind
	d.aggs, d.aggIdx, kinds = allAggs(d.groupCols)
	d.a = d.fresh(t)
	pools := make([][]expr.Value, d.groupCols)
	for g := range pools {
		pools[g] = keyPools[r.Intn(len(keyPools))]
	}
	for range r.Intn(80) {
		row := make([]expr.Value, d.groupCols)
		for g, pool := range pools {
			row[g] = pool[r.Intn(1+r.Intn(len(pool)))]
		}
		group := len(d.firsts)
	scan:
		for j, key := range d.firsts {
			for g := range key {
				if refOrder(key[g], row[g]) != 0 {
					continue scan
				}
			}
			group = j
			break
		}
		if group == len(d.firsts) {
			d.firsts = append(d.firsts, row)
		}
		d.rows, d.groupOf = append(d.rows, append(row, measuresOf(r)...)), append(d.groupOf, group)
	}
	for at := 0; at < len(d.rows); {
		batch := d.rows[at:min(at+1+r.Intn(20), len(d.rows))]
		at += len(batch)
		if r.Intn(2) == 0 {
			if err := d.a.Add(batch); err != nil {
				t.Fatal(err)
			}
			continue
		}
		groups := make([]Column, d.groupCols)
		for g := range groups {
			groups[g] = Column{Vec: storage.VectorOf(valuesAt(batch, g))}
			if r.Intn(3) == 0 {
				var coder dictCoder
				groups[g].Group = &GroupCodes{Codes: coder.code(groups[g], len(batch), nil), Dict: coder.dict}
			}
		}
		measures := make([]Column, len(d.aggs))
		for i, c := range d.aggIdx {
			if c >= 0 {
				measures[i] = Column{Vec: columnOf(batch, c, kinds[c])}
			}
		}
		if err := d.a.AddVectors(len(batch), groups, measures); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func (d *dirtyFold) fresh(t *testing.T) *HashAggregator {
	a, err := NewHashAggregator(leadingIdx(d.groupCols), d.aggs, d.aggIdx)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func leadingIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestQuickFinalizeCellsMatchesRefold: a dirty fold, then a random
// selection of its Partials, read in place (Cells.Pick). FinalizeCells of
// the selection must equal a fresh fold of only the selected groups'
// rows, in the same order, and so must Absorbing the selection into a
// fresh aggregator.
func TestQuickFinalizeCellsMatchesRefold(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := newDirtyFold(t, r)
		if n := d.a.Partials().N; n != len(d.firsts) {
			t.Errorf("seed %d: %d partials, the scan finds %d groups", seed, n, len(d.firsts))
			return false
		}
		keep := make([]bool, len(d.firsts))
		var sel []int32
		for g := range keep {
			if keep[g] = r.Intn(3) > 0; keep[g] {
				sel = append(sel, int32(g))
			}
		}
		var refolded [][]expr.Value
		for i, row := range d.rows {
			if keep[d.groupOf[i]] {
				refolded = append(refolded, row)
			}
		}
		refold := d.fresh(t)
		if err := refold.Add(refolded); err != nil {
			t.Fatal(err)
		}
		cells := d.a.Partials().Pick(sel)
		finalised, err := FinalizeCells(d.groupCols, d.aggs, cells)
		if err != nil {
			t.Fatal(err)
		}
		absorbed := d.fresh(t)
		if err := absorbed.Absorb(cells); err != nil {
			t.Fatal(err)
		}
		want := refold.Result()
		for name, got := range map[string][][]expr.Value{"FinalizeCells": finalised, "Absorb": absorbed.Result()} {
			if msg := sameRows(got, want); msg != "" {
				t.Errorf("seed %d, %d group columns: %s of the selection: %s", seed, d.groupCols, name, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPartialsCodeEachValueOnce: the key columns Partials exports
// hold each group's first-seen key, bit for bit, but for a zero float,
// which is +0 whatever sign it was first seen with, and a NaN, which is
// math.NaN() whatever payload it was first seen with. An int or float column
// keeps its typed vector; a string column, and the mixed form, has
// exactly one dictionary entry per distinct non-NULL key value — by
// the coder's rules: ints by value, floats by bit pattern, strings by
// content, each kind apart — and a NULL key is a NULL row.
func TestQuickPartialsCodeEachValueOnce(t *testing.T) {
	f := func(seed int64) bool {
		d := newDirtyFold(t, rand.New(rand.NewSource(seed)))
		cells := d.a.Partials()
		for j, k := range cells.Keys {
			fail := func(format string, args ...any) bool {
				t.Errorf("seed %d, key column %d (%s): "+format, append([]any{seed, j, k.Kind}, args...)...)
				return false
			}
			if k.Len() != cells.N {
				return fail("%d rows for %d cells", k.Len(), cells.N)
			}
			distinct, kinds := map[string]bool{}, map[expr.Kind]bool{}
			for g, key := range d.firsts {
				want := key[j]
				if f, _ := want.AsFloat(); f == 0 && want.Kind() == expr.KindFloat {
					want = expr.Float(0)
				} else if f != f {
					want = expr.Float(math.NaN())
				}
				if got := k.Value(g); !identical(got, want) {
					return fail("cell %d keyed %s, first seen as %s", g, got, key[j])
				}
				if !want.IsNull() {
					distinct[coderKey(want)], kinds[want.Kind()] = true, true
				}
			}
			want := expr.KindNull // the mixed form, or every key NULL
			if len(kinds) == 1 {
				for kind := range kinds {
					want = kind
				}
			}
			if k.Kind != want {
				return fail("keys of kinds %v make a %s vector", kinds, want)
			}
			if k.Coded() && k.Kind != expr.KindBool && len(k.Dict) != len(distinct) {
				return fail("%d dictionary entries for %d distinct values", len(k.Dict), len(distinct))
			}
			for _, e := range k.Dict {
				if !distinct[coderKey(e)] {
					return fail("dictionary entry %s is no key, or repeats", e)
				}
				delete(distinct, coderKey(e))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// coderKey names a value as dictCoder tells values apart.
func coderKey(v expr.Value) string {
	if f, ok := v.AsFloat(); ok && v.Kind() == expr.KindFloat {
		return fmt.Sprintf("f:%x", math.Float64bits(f))
	}
	return fmt.Sprintf("%d:%s", v.Kind(), v)
}

// sameRows describes the first difference of two result sets, bit for
// bit, or returns "".
func sameRows(got, want [][]expr.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !identical(got[i][j], want[i][j]) {
				return fmt.Sprintf("row %d column %d is %s, want %s", i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}
