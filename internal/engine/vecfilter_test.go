package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// The VectorFilter must keep exactly the rows expr.EvalBool accepts, a
// row at a time, and fail exactly when it fails, with its words. The
// batches are dirty — NULLs, NaN, −0, Int 3 beside Float 3.0, ints past
// 2⁵³ and a column of ints around ±2⁵³ compared with int and float
// literals, mixed-kind and run-length dictionaries, the shared bool
// dictionary, selections that repeat rows as a fan-out does — and the
// predicates mix every kind of conjunct pass in every order.

// filterCols are a filter test batch's columns; nope is named by some
// predicates and bound by none.
var filterCols = []string{"quantity", "price", "c_mktsegment", "p_brand", "flag", "mix", "big"}

const past53 = int64(1) << 53

var (
	nan, negZero  = expr.Float(math.NaN()), expr.Float(math.Copysign(0, -1))
	filterPalette = map[string][]expr.Value{
		"quantity": {expr.Int(0), expr.Int(3), expr.Int(20), expr.Int(21), expr.Int(-7), expr.Int(past53), expr.Int(past53 + 1),
			expr.Int(-past53 - 1), expr.Int(math.MaxInt64), expr.Int(math.MinInt64), expr.Null()},
		"price": {expr.Float(3), expr.Float(2.5), expr.Float(20), expr.Float(20.5), nan, negZero, expr.Float(0),
			expr.Float(math.Inf(1)), expr.Float(math.Inf(-1)), expr.Float(float64(past53)), expr.Null()},
		"c_mktsegment": {expr.Str("BUILDING"), expr.Str("MACHINERY"), expr.Str(""), expr.Str("3"), expr.Null()},
		"p_brand":      {expr.Str("Brand#13"), expr.Str("Brand#21"), expr.Str("brand#13"), expr.Null()},
		"flag":         {expr.Bool(true), expr.Bool(false), expr.Null()},
		"mix":          {expr.Int(3), expr.Float(3), expr.Str("3"), expr.Bool(true), expr.Int(past53 + 1), nan, expr.Null()},
		"big": {expr.Int(past53 - 1), expr.Int(past53), expr.Int(past53 + 1), expr.Int(past53 + 2), expr.Int(past53 + 3),
			expr.Int(-past53), expr.Int(-past53 - 1), expr.Int(-past53 - 2), expr.Null()},
	}
)

// filterBatch draws batches of one shape from pick (n → a choice in
// [0, n)): m underlying rows per column, each batch n rows of them.
type filterBatch struct {
	pick func(n int) int
	m    int
	prev []Column // the last batch's columns, which the next may present again
}

func (g *filterBatch) chance(n int) bool { return g.pick(n) == 0 }

// vector draws m values of a column and builds their vector: typed or
// mixed as storage.VectorOf makes it, quantity's ints sometimes
// floats, a string column sometimes against a dictionary that holds
// every entry twice (a run-length chunk repeats entries).
func (g *filterBatch) vector(name string) *storage.Vector {
	palette := filterPalette[name]
	floats := 0 // quantity: 1 every int a float, 2 some ints floats (a mixed vector)
	if name == "quantity" {
		floats = g.pick(4)
	}
	vals := make([]expr.Value, g.m)
	for i := range vals {
		vals[i] = palette[g.pick(len(palette))]
		if f, ok := vals[i].AsFloat(); ok && (floats == 1 || floats == 2 && g.chance(2)) {
			vals[i] = expr.Float(f) // Int 3 beside Float 3.0
		}
	}
	vec := storage.VectorOf(vals)
	if vec.Kind == expr.KindString && g.chance(2) {
		vec.Dict = append(slices.Clone(vec.Dict), vec.Dict...)
		for i := range vec.Codes {
			if g.chance(2) {
				vec.Codes[i] += uint32(len(vec.Dict) / 2)
			}
		}
	}
	return vec
}

// next draws a batch: its columns and row count.
func (g *filterBatch) next() ([]Column, int) {
	n := g.m
	var shared []int32
	if g.chance(2) { // a fan-out's selection: rows repeat, in order
		n = g.pick(2*g.m + 1)
		if g.m == 0 {
			n = 0
		}
		shared = g.selection(n)
	}
	cols := make([]Column, len(filterCols))
	for c, name := range filterCols {
		switch {
		case g.prev != nil && g.chance(3): // the same vector again: a dimension column
			cols[c].Vec = g.prev[c].Vec
		default:
			cols[c].Vec = g.vector(name)
		}
		if shared != nil {
			cols[c].Sel = shared
			if g.chance(3) {
				cols[c].Sel = g.selection(n)
			}
		}
	}
	g.prev = cols
	return cols, n
}

func (g *filterBatch) selection(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(g.pick(g.m))
	}
	if g.chance(2) {
		slices.Sort(sel)
	}
	return sel
}

// Conjunct atoms of each kind of pass: one coded column, a numeric
// column against a numeric literal, and the rest — errors and non-bool
// values among all three.
var (
	codedAtoms = []string{"c_mktsegment = 'BUILDING'", "c_mktsegment <> 'MACHINERY'", "p_brand > 'Brand#1'", "flag",
		"NOT flag", "flag = TRUE", "mix = 3", "mix >= 3", "mix < 'a'", "c_mktsegment > 5", "UPPER(p_brand) = 'BRAND#13'",
		"c_mktsegment = NULL", "LENGTH(c_mktsegment) > 3", "c_mktsegment", "COALESCE(flag, TRUE)", "mix > 2.5"}
	numericAtoms = []string{"quantity > 20", "20 < quantity", "quantity = 3.0", "quantity <> 3", "quantity <= 9007199254740992",
		"quantity >= 9007199254740993", "price >= 3", "price <= 2.5", "price = 20", "3 = price", "price <> 0", "price > 0.0",
		"quantity < 21", "quantity >= 3", "price < 9007199254740993", "quantity = NULL", "big = 9007199254740993",
		"big > 9007199254740992.0", "big <= 9007199254740993.0", "9007199254740994 > big", "big <> -9007199254740993",
		"big >= -9007199254740993.0", "big < -9007199254740992", "big = 9007199254740996.0"}
	otherAtoms = []string{"quantity + 1 > 21", "quantity > price", "c_mktsegment = 'BUILDING' OR quantity > 20",
		"NOT (price > 2.5)", "quantity / (quantity - 3) > 0", "quantity", "price + 1", "quantity > 'a'", "nope = 1", "TRUE",
		"NULL", "1 = 1", "flag OR price > 3", "NOT quantity > 3", "-price < 0", "quantity % 2 = 0",
		"(flag AND quantity > 20) OR NOT flag", "ABS(price) >= 2.5", "big = price", "big > quantity"}
)

// randomPredicate conjoins up to four atoms of any kind, sometimes
// nesting the conjunction or putting an OR or a NOT on top.
func randomPredicate(r *rand.Rand) string {
	pools := [][]string{codedAtoms, numericAtoms, otherAtoms}
	k := 1 + r.Intn(4)
	atoms := make([]string, k)
	for i := range atoms {
		pool := pools[r.Intn(len(pools))]
		atoms[i] = "(" + pool[r.Intn(len(pool))] + ")"
	}
	switch r.Intn(8) {
	case 0:
		return "NOT (" + strings.Join(atoms, " AND ") + ")"
	case 1:
		return strings.Join(atoms, " OR ")
	case 2:
		if k > 2 {
			return atoms[0] + " AND (" + strings.Join(atoms[1:], " AND ") + ")"
		}
	}
	return strings.Join(atoms, " AND ")
}

// filterReference is expr.EvalBool a row at a time.
func filterReference(pred expr.Node, cols []Column, n int) ([]int32, error) {
	var kept []int32
	vals := map[string]expr.Value{}
	for j := 0; j < n; j++ {
		for c, name := range filterCols {
			vals[name] = cols[c].Vec.Value(cols[c].row(j))
		}
		ok, err := expr.EvalBool(pred, expr.MapEnv(vals))
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, int32(j))
		}
	}
	return kept, nil
}

// filterDivergence applies f to the batch and returns how it departs
// from the reference, "" when it does not.
func filterDivergence(f *VectorFilter, pred expr.Node, cols []Column, n int) string {
	want, werr := filterReference(pred, cols, n)
	got, gerr := f.Apply(n, cols, nil)
	switch {
	case (werr == nil) != (gerr == nil):
		return fmt.Sprintf("error %v, reference %v", gerr, werr)
	case werr != nil && werr.Error() != gerr.Error():
		return fmt.Sprintf("error %q, reference %q", gerr, werr)
	case werr == nil && !slices.Equal(got, want):
		return fmt.Sprintf("kept %v, reference %v", got, want)
	}
	return ""
}

func filterIndex() map[string]int {
	index := map[string]int{}
	for c, name := range filterCols {
		index[name] = c
	}
	return index
}

func TestQuickVectorFilterMatchesEvalBool(t *testing.T) {
	start := time.Now()
	r := rand.New(rand.NewSource(24))
	pairs, divergences, errs := 0, 0, 0
	for c := 0; c < 2000; c++ {
		src := randomPredicate(r)
		pred := expr.MustParse(src)
		f := NewVectorFilter(pred, filterIndex())
		g := &filterBatch{pick: r.Intn, m: r.Intn(40)}
		for b := 0; b < 3; b++ { // one filter over several batches: its caches carry over
			cols, n := g.next()
			pairs++
			if _, err := filterReference(pred, cols, n); err != nil {
				errs++
			}
			if d := filterDivergence(f, pred, cols, n); d != "" {
				if divergences++; divergences <= 5 {
					t.Errorf("%s, batch %d of %d rows: %s", src, b, n, d)
				}
			}
		}
	}
	t.Logf("%d (predicate, batch) pairs, %d of them errors, %d divergences, %v", pairs, errs, divergences, time.Since(start))
	if divergences > 0 {
		t.Fatalf("%d divergences", divergences)
	}
}

// FuzzVectorFilter builds a batch from the fuzzer's bytes — each byte a
// choice among a column's values, a selection's rows, a vector's form —
// and filters it by the fuzzer's predicate text.
func FuzzVectorFilter(f *testing.F) {
	for _, seed := range []string{
		"c_mktsegment = 'BUILDING' AND quantity > 20", "c_mktsegment = 'MACHINERY' AND quantity > 10",
		"p_brand = 'Brand#13'", "p_brand = 'Brand#13' AND c_mktsegment = 'BUILDING'",
		"price >= 3 AND mix = 3", "quantity >= 9007199254740993 AND (flag OR price > 3)",
		"c_mktsegment > 5 AND quantity / (quantity - 3) > 0", "mix < 'a' AND quantity", "NOT flag AND price <> 0",
		"quantity <= 9007199254740992", "price >= 20.5 AND 3 = quantity",
		"big = 9007199254740993 AND big > 9007199254740992.0", "big >= -9007199254740993.0 OR big = price",
	} {
		f.Add(seed, []byte{12, 1, 0, 7, 3, 250, 9, 4, 4, 2, 0, 1, 200, 33, 5, 6, 7, 8, 9, 10, 11, 12})
	}
	index := filterIndex()
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		pred, err := expr.Parse(src)
		if err != nil || len(data) == 0 {
			return
		}
		pick := func(n int) int {
			if len(data) == 0 || n <= 1 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		g := &filterBatch{pick: pick, m: pick(64)}
		vf := NewVectorFilter(pred, index)
		for b := 0; b < 2; b++ {
			cols, n := g.next()
			if d := filterDivergence(vf, pred, cols, n); d != "" {
				t.Fatalf("%s, batch %d of %d rows: %s", src, b, n, d)
			}
		}
	})
}

// BenchmarkVectorFilter measures the filter alone on a scan_filter-like
// batch: a fact int column selected by fact position, a dimension
// string column selected by dimension row. Not gated; it reports rows/s.
func BenchmarkVectorFilter(b *testing.B) {
	const n = 4096
	r := rand.New(rand.NewSource(1))
	segments := []expr.Value{expr.Str("AUTOMOBILE"), expr.Str("BUILDING"), expr.Str("FURNITURE"), expr.Str("MACHINERY"), expr.Str("HOUSEHOLD")}
	dim := make([]expr.Value, 1500)
	for i := range dim {
		dim[i] = segments[r.Intn(len(segments))]
	}
	qty, price := make([]expr.Value, n), make([]expr.Value, n)
	pos, dimRow := make([]int32, n), make([]int32, n)
	for i := range qty {
		qty[i], pos[i], dimRow[i] = expr.Int(int64(1+r.Intn(50))), int32(i), int32(r.Intn(len(dim)))
		price[i] = expr.Float(float64(1 + r.Intn(50)))
	}
	cols := []Column{{Vec: storage.VectorOf(qty), Sel: pos}, {Vec: storage.VectorOf(dim), Sel: dimRow}, {Vec: storage.VectorOf(price), Sel: pos}}
	index := map[string]int{"quantity": 0, "c_mktsegment": 1, "l_quantity": 2}
	for _, bc := range []struct{ name, pred string }{
		{"int_range", "quantity > 20"},
		{"float_range", "l_quantity > 20"}, // a float column against an int literal, as TPC-H's l_quantity
		{"dict_eq", "c_mktsegment = 'BUILDING'"},
		{"both", "c_mktsegment = 'BUILDING' AND quantity > 20"},
		{"fallback", "c_mktsegment = 'BUILDING' OR quantity > 20"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := NewVectorFilter(expr.MustParse(bc.pred), index)
			kept := make([]int32, 0, n)
			var err error
			for i := 0; i < b.N; i++ {
				if kept, err = f.Apply(n, cols, kept[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
