package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// A Function's typed program must give exactly the vector the row loop
// gives — kind, float bits, zeros on NULL rows, a nil bitmap when no row
// is NULL, the mixed form when every row is — or fail with exactly its
// error. The batches are dirty: NULLs, NaNs of several payloads, ±0,
// ±Inf, ints around ±2⁵³ and the ends of int64, columns that are mostly
// zero (divisors, under a NULL dividend and under a number), columns
// of ints and floats mixed and columns all NULL, read whole and through
// selections that repeat rows.

// functionCols are the columns a Function test batch holds.
var functionCols = []string{"qi", "qf", "zi", "zf", "big", "mix"}

var functionPalette = map[string][]expr.Value{
	"qi": {expr.Int(1), expr.Int(3), expr.Int(-7), expr.Int(20), expr.Int(past53), expr.Int(past53 + 1),
		expr.Int(-past53 - 1), expr.Int(0), expr.Null()},
	"qf": {expr.Float(2.5), expr.Float(3), negZero, expr.Float(0), nan, nanOf(0x7ff8000000000001), nanOf(0xfff8000000000000),
		expr.Float(math.Inf(1)), expr.Float(math.Inf(-1)), expr.Float(0.1), expr.Float(float64(past53)), expr.Float(1e300),
		expr.Float(5e-324), expr.Null()},
	"zi": {expr.Int(0), expr.Int(0), expr.Int(2), expr.Int(-1), expr.Null()},
	"zf": {expr.Float(0), negZero, expr.Float(0.5), expr.Float(-3), expr.Null()},
	"big": {expr.Int(math.MaxInt64), expr.Int(math.MinInt64), expr.Int(math.MaxInt64 - 1), expr.Int(math.MinInt64 + 1),
		expr.Int(1 << 62), expr.Int(-1), expr.Null()},
	"mix": {expr.Int(3), expr.Float(3), expr.Float(0.5), expr.Int(0), expr.Null()},
}

// functionLiterals are the literals the expressions draw from, as text.
var functionLiterals = []string{"0", "1", "2", "3", "7", "9007199254740993", "9223372036854775807",
	"9223372036854775808", "0.0", "1.5", "0.5", "2.0", "0.1"}

// functionBatch draws batches from pick (n → a choice in [0, n)), as
// filterBatch does: m underlying rows per column, each batch n rows.
type functionBatch struct {
	pick func(n int) int
	m    int
}

func (g *functionBatch) chance(n int) bool { return g.pick(n) == 0 }

// vector draws m values of a column: typed as VectorOf makes it, an
// int column sometimes holding a float (the mixed form) or only NULLs.
func (g *functionBatch) vector(name string) *storage.Vector {
	palette := functionPalette[name]
	vals := make([]expr.Value, g.m)
	null, mixed := g.chance(12), name != "mix" && g.chance(10)
	for i := range vals {
		switch {
		case null:
		case mixed && g.chance(3):
			vals[i] = expr.Float(0.25)
		default:
			vals[i] = palette[g.pick(len(palette))]
		}
	}
	return storage.VectorOf(vals)
}

// next draws a batch: every column whole, or through selections that
// may repeat rows.
func (g *functionBatch) next() *Batch {
	b := &Batch{N: g.m, Cols: make([]Column, len(functionCols))}
	var shared []int32
	if g.chance(2) {
		b.N = g.pick(2*g.m + 1)
		if g.m == 0 {
			b.N = 0
		}
		shared = g.selection(b.N)
	}
	for c, name := range functionCols {
		b.Cols[c].Vec = g.vector(name)
		if shared != nil {
			b.Cols[c].Sel = shared
			if g.chance(3) {
				b.Cols[c].Sel = g.selection(b.N)
			}
		}
	}
	return b
}

func (g *functionBatch) selection(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(g.pick(g.m))
	}
	return sel
}

// arithText draws arithmetic text: identifiers, literals, unary minus,
// the five operators, with and without parentheses.
func arithText(pick func(n int) int, depth int) string {
	switch k := pick(8); {
	case depth <= 0 || k < 2:
		return functionCols[pick(len(functionCols))]
	case k == 2:
		return functionLiterals[pick(len(functionLiterals))]
	case k == 3:
		return "-" + arithText(pick, depth-1)
	default:
		e := arithText(pick, depth-1) + " " + string("+-*/%"[pick(5)]) + " " + arithText(pick, depth-1)
		if pick(3) > 0 {
			e = "(" + e + ")"
		}
		return e
	}
}

// newFunctionKernel is the vector Function computing src over the test
// batches' columns.
func newFunctionKernel(t testing.TB, src string) *vecFunction {
	t.Helper()
	var in []xlm.Field
	for _, c := range functionCols {
		in = append(in, xlm.Field{Name: c})
	}
	n := &xlm.Node{Name: "F", Type: xlm.OpFunction, Params: map[string]string{"name": "fn", "expr": src}}
	o, err := newVecFunction(n, in, append(in, xlm.Field{Name: "fn"}))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// functionDivergence compares the Function's column on b with the row
// loop's; "" when they are the same, vector and error. An expression
// that only names a column passes it on, and is not compared.
func functionDivergence(o *vecFunction, b *Batch) string {
	if o.same >= 0 {
		return ""
	}
	want, werr := o.rows(b)
	out, err := o.apply(b)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		return fmt.Sprintf("error %v, row loop %v", err, werr)
	}
	if err != nil {
		return ""
	}
	if got := out.Cols[len(out.Cols)-1].Vec; !reflect.DeepEqual(vectorImage(got), vectorImage(want)) {
		return fmt.Sprintf("vector %+v, row loop %+v", vectorImage(got), vectorImage(want))
	}
	return ""
}

// vectorImage is a vector field for field, floats by their bits and
// dictionary entries by kind and bits, nil slices kept apart from
// empty ones.
func vectorImage(v *storage.Vector) any {
	var floats []uint64
	if v.Floats != nil {
		floats = make([]uint64, len(v.Floats))
		for i, f := range v.Floats {
			floats[i] = math.Float64bits(f)
		}
	}
	var dict []string
	if v.Dict != nil {
		dict = make([]string, len(v.Dict))
		for i, x := range v.Dict {
			dict[i] = x.Kind().String() + ":" + bitsOf(x)
		}
	}
	return struct {
		Kind   expr.Kind
		Ints   []int64
		Floats []uint64
		Codes  []uint32
		Dict   []string
		Nulls  []uint64
	}{v.Kind, v.Ints, floats, v.Codes, dict, v.Nulls}
}

func TestQuickFunctionKernelMatchesRowLoop(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	pairs, errs, divergences, typed := 0, 0, 0, 0
	for c := 0; c < 3000; c++ {
		src := arithText(r.Intn, 1+r.Intn(4))
		o := newFunctionKernel(t, src)
		g := &functionBatch{pick: r.Intn, m: r.Intn(150)}
		ran := false
		for range 3 { // one Function over several batches: its registers carry over
			b := g.next()
			pairs++
			if _, err := o.rows(b); err != nil {
				errs++
			}
			ran = ran || o.prog != nil && o.prog.run(b, o.in) != nil
			if d := functionDivergence(o, b); d != "" {
				if divergences++; divergences <= 5 {
					t.Errorf("%s, %d rows: %s", src, b.N, d)
				}
			}
		}
		if ran {
			typed++
		}
	}
	t.Logf("%d (expression, batch) pairs, %d of them errors; %d Functions ran the program", pairs, errs, typed)
	if divergences > 0 {
		t.Fatalf("%d divergences", divergences)
	}
	if typed < 1000 || errs == 0 {
		t.Fatalf("generator drifted: %d Functions typed, %d errors", typed, errs)
	}
}

// TestFunctionKernelCases pins the cases the program must decline or
// compute as the row loop does.
func TestFunctionKernelCases(t *testing.T) {
	vec := func(vals ...expr.Value) *storage.Vector { return storage.VectorOf(vals) }
	i, f, null := expr.Int, expr.Float, expr.Null()
	for _, tc := range []struct {
		src   string
		cols  map[string]*storage.Vector
		typed bool // the program computes it
	}{
		{"qi * qf", map[string]*storage.Vector{"qi": vec(i(2), i(3)), "qf": vec(f(0.5), null)}, true},
		{"qf * (1 - zf)", map[string]*storage.Vector{"qf": vec(f(2.5), f(1e300)), "zf": vec(f(0.5), f(-3))}, true},
		{"big + big", map[string]*storage.Vector{"big": vec(i(math.MaxInt64), i(math.MinInt64))}, true}, // wraps
		{"-big % qi", map[string]*storage.Vector{"big": vec(i(math.MinInt64), i(7)), "qi": vec(i(-1), i(2))}, true},
		{"qi % zi", map[string]*storage.Vector{"qi": vec(null, i(3)), "zi": vec(i(0), i(2))}, true},     // 0 under NULL
		{"qi / zi", map[string]*storage.Vector{"qi": vec(i(4), i(3)), "zi": vec(i(2), i(2))}, false},    // Int, then Float
		{"qf / zf", map[string]*storage.Vector{"qf": vec(f(1), f(1)), "zf": vec(f(2), negZero)}, false}, // error
		{"qi + mix", map[string]*storage.Vector{"qi": vec(i(1), i(1)), "mix": vec(i(3), f(3))}, false},
		{"qi + qf", map[string]*storage.Vector{"qi": vec(null, i(1)), "qf": vec(f(1), null)}, false}, // every row NULL
		{"qi + 1", map[string]*storage.Vector{"qi": vec(null, null)}, false},
	} {
		o := newFunctionKernel(t, tc.src)
		b := &Batch{Cols: make([]Column, len(functionCols))}
		for c, name := range functionCols {
			if v, ok := tc.cols[name]; ok {
				b.Cols[c].Vec, b.N = v, v.Len()
			} else {
				b.Cols[c].Vec = &storage.Vector{Kind: expr.KindString}
			}
		}
		if got := o.prog.run(b, o.in) != nil; got != tc.typed {
			t.Errorf("%s: program computed it %v, want %v", tc.src, got, tc.typed)
		}
		if d := functionDivergence(o, b); d != "" {
			t.Errorf("%s: %s", tc.src, d)
		}
	}
	if o := newFunctionKernel(t, "qi + LENGTH(qi)"); o.prog != nil {
		t.Error("a call compiled into a program")
	}
	if o := newFunctionKernel(t, "qi + nope"); o.prog != nil {
		t.Error("an unbound identifier compiled into a program")
	}
}

// FuzzFunctionKernel evaluates the fuzzer's arithmetic over batches
// drawn from its bytes and holds the program to the row loop.
func FuzzFunctionKernel(f *testing.F) {
	f.Add([]byte{7, 4, 1, 0, 3, 3, 1}, []byte{12, 1, 0, 7, 3, 250, 9, 4, 4, 2, 0, 1, 200, 33, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{5, 0, 0, 3, 1, 2, 0}, []byte{40, 1, 1, 1, 1, 0, 0, 0, 9, 9, 9, 9, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 7, 7}, []byte{64, 0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39})
	f.Fuzz(func(t *testing.T, shape, data []byte) {
		from := func(bs *[]byte) func(n int) int {
			return func(n int) int {
				if len(*bs) == 0 || n <= 1 {
					return 0
				}
				b := (*bs)[0]
				*bs = (*bs)[1:]
				return int(b) % n
			}
		}
		src := arithText(from(&shape), 4)
		if _, err := expr.Parse(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		pick := from(&data)
		o := newFunctionKernel(t, src)
		g := &functionBatch{pick: pick, m: pick(100)}
		for range 2 {
			b := g.next()
			if d := functionDivergence(o, b); d != "" {
				t.Fatalf("%s, %d rows: %s", src, b.N, d)
			}
		}
	})
}

// BenchmarkVecFunction times a Function alone over 8 192 rows in the
// run's two shapes — revenue's a * (1 - b) over floats, supplycost's a
// * b over a float and an int — read whole and through a selection
// (the rows a join matched), the program against the row loop.
func BenchmarkVecFunction(b *testing.B) {
	const n = 8192
	r := rand.New(rand.NewSource(46))
	price, disc, cost, qty := make([]expr.Value, n), make([]expr.Value, n), make([]expr.Value, n), make([]expr.Value, n)
	sel := make([]int32, n)
	for i := range n {
		price[i], disc[i] = expr.Float(float64(r.Intn(100000))/100), expr.Float(float64(r.Intn(11))/100)
		cost[i], qty[i] = expr.Float(float64(r.Intn(100000))/100), expr.Int(int64(1+r.Intn(50)))
		sel[i] = int32(r.Intn(n))
	}
	for _, shape := range []struct{ name, src string }{
		{"revenue", "qf * (1 - zf)"},
		{"supplycost", "qf * qi"},
	} {
		for _, selected := range []bool{false, true} {
			sub := shape.name
			if selected {
				sub += "_sel"
			}
			b.Run(sub, func(b *testing.B) {
				o := newFunctionKernel(b, shape.src)
				batch := &Batch{N: n, Cols: make([]Column, len(functionCols))}
				for c, name := range functionCols {
					vals := map[string][]expr.Value{"qf": price, "zf": disc, "qi": qty}[name]
					if shape.name == "supplycost" && name == "qf" {
						vals = cost
					}
					batch.Cols[c].Vec = storage.VectorOf(vals)
					if selected {
						batch.Cols[c].Sel = sel
					}
				}
				if o.prog.run(batch, o.in) == nil {
					b.Fatal("the program declined the batch")
				}
				for range b.N {
					if _, err := o.apply(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}

// TestArithTextCompiles: the program compiles every text the
// generator draws, so the fuzzer's expressions reach it.
func TestArithTextCompiles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for range 500 {
		src := arithText(r.Intn, 4)
		if o := newFunctionKernel(t, src); o.prog == nil && o.same < 0 {
			t.Fatalf("%s: not compiled", src)
		}
	}
}
