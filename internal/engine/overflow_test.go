package engine

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// sumCases are integer multisets whose SUM leaves int64 or only passes
// through a prefix that does: the verdict is about the multiset.
var sumCases = []struct {
	vals     []int64
	want     int64
	overflow bool
}{
	{[]int64{math.MaxInt64, 1}, 0, true},
	{[]int64{math.MaxInt64, 1, -1}, math.MaxInt64, false},
	{[]int64{math.MinInt64, -1}, 0, true},
	{[]int64{math.MinInt64, -1, 1}, math.MinInt64, false},
	{[]int64{math.MaxInt64, math.MaxInt64, math.MinInt64, math.MinInt64, 5}, 3, false},
	{[]int64{math.MaxInt64, math.MaxInt64}, 0, true},
	{[]int64{1 << 62, 1 << 62}, 0, true},
	{[]int64{1 << 62, 1 << 62, -1}, math.MaxInt64, false},
	{[]int64{math.MinInt64, math.MinInt64, math.MaxInt64}, 0, true},
	{[]int64{7, -3, 2}, 6, false},
}

var sumAggs = []xlm.AggSpec{{Out: "total", Func: "SUM", Col: "v"}}

// sumOf folds the values as a global SUM through Add or AddVectors, in
// one go (cut < 0) or split after value i for every set bit i of cut into
// runs aggregated apart and merged by MergeCells.
func sumOf(t *testing.T, vals []int64, vectors bool, cut int) (expr.Value, error) {
	return foldOf(t, sumAggs[0], intValues(vals), vectors, cut)
}

func intValues(vals []int64) []expr.Value {
	out := make([]expr.Value, len(vals))
	for i, v := range vals {
		out[i] = expr.Int(v)
	}
	return out
}

// foldOf is sumOf for any one aggregate over values of any numeric
// kinds; AddVectors takes them as storage.VectorOf makes them.
func foldOf(t *testing.T, agg xlm.AggSpec, vals []expr.Value, vectors bool, cut int) (expr.Value, error) {
	t.Helper()
	aggs := []xlm.AggSpec{agg}
	fold := func(vals []expr.Value) *HashAggregator {
		a, err := NewHashAggregator(nil, aggs, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if vectors {
			err = a.AddVectors(len(vals), nil, []Column{{Vec: storage.VectorOf(vals)}})
		} else {
			rows := make([][]expr.Value, len(vals))
			for i, v := range vals {
				rows[i] = []expr.Value{v}
			}
			err = a.Add(rows)
		}
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	var rows [][]expr.Value
	var err error
	if cut < 0 {
		rows, err = fold(vals).op.result()
	} else {
		var parts []Cells
		for start, i := 0, 1; i <= len(vals); i++ {
			if i == len(vals) || cut>>(i-1)&1 == 1 {
				parts = append(parts, fold(vals[start:i]).Partials())
				start = i
			}
		}
		var merged *HashAggregator
		if merged, err = MergeCells(0, aggs, parts...); err == nil {
			rows, err = merged.Answer(nil)
		}
	}
	if err != nil {
		return expr.Value{}, err
	}
	return rows[0][0], nil
}

// TestIntSumOverflowIsAnError: an integer SUM whose true sum leaves
// int64 fails — through Add, AddVectors and every partition merged
// through Partials — instead of wrapping, and one whose prefix
// overflowed but whose sum did not returns that sum, in every order.
func TestIntSumOverflowIsAnError(t *testing.T) {
	for _, tc := range sumCases {
		vals := append([]int64(nil), tc.vals...)
		rows := make([][]expr.Value, len(vals))
		for i := range rows {
			rows[i] = []expr.Value{expr.Int(vals[i])}
		}
		permute(rows, len(rows), func() {
			for i, row := range rows {
				vals[i] = row[0].AsInt()
			}
			for _, vectors := range []bool{false, true} {
				for cut := -1; cut < 1<<(len(vals)-1); cut++ {
					got, err := sumOf(t, vals, vectors, cut)
					switch {
					case tc.overflow && (err == nil || !strings.Contains(err.Error(), `aggregation SUM "total" overflows int64`)):
						t.Fatalf("SUM%v (vectors %v, cut %d) = %v, %v; want the overflow error", vals, vectors, cut, got, err)
					case !tc.overflow && (err != nil || got.Kind() != expr.KindInt || got.AsInt() != tc.want):
						t.Fatalf("SUM%v (vectors %v, cut %d) = %v, %v; want %d", vals, vectors, cut, got, err, tc.want)
					}
				}
			}
		})
	}
}

// TestIntSumOverflowFailsTheRun: both executors fail a run whose int SUM
// leaves int64, with the same error, and load the sum whose prefix only
// did.
func TestIntSumOverflowFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		vals []int64
		err  string
	}{
		{[]int64{math.MaxInt64, 1}, `engine: node "AGG": aggregation SUM "total" overflows int64`},
		{[]int64{math.MaxInt64, 1, -1}, ""},
	} {
		d := xlm.NewDesign("sum")
		d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore, Fields: []xlm.Field{{Name: "v", Type: "int"}}, Params: map[string]string{"table": "src"}})
		d.AddNode(&xlm.Node{Name: "AGG", Type: xlm.OpAggregation, Params: map[string]string{"aggregates": "total:SUM:v"}})
		d.AddNode(&xlm.Node{Name: "OUT", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
		d.AddEdge("DS", "AGG")
		d.AddEdge("AGG", "OUT")
		for name, run := range map[string]func(*xlm.Design, *storage.DB) (*Result, error){"reference": RunMaterializing, "pipelined": Run} {
			db := storage.NewMemDB()
			src, _ := db.CreateTable("src", []storage.Column{{Name: "v", Type: "int"}})
			for _, v := range tc.vals {
				src.Insert(storage.Row{expr.Int(v)})
			}
			_, err := run(d, db)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("%s: SUM%v: %v, want %q", name, tc.vals, err, tc.err)
				}
				continue
			}
			out, _ := db.Table("out")
			if err != nil || out.Rows()[0][0].AsInt() != math.MaxInt64 {
				t.Fatalf("%s: SUM%v: %v, %v", name, tc.vals, err, out)
			}
		}
	}
}

// TestQuickIntSumMatchesBig: over random int multisets clustered where
// the 128-bit image sum has edges — near ±MaxInt64, near ±2⁵³ (where an
// int's float64 image starts to round) and near 0 — folded in random
// orders and partitions through Add, AddVectors and Partials →
// MergeCells, SUM's value and overflow verdict are those of the
// math/big sum, and AVG is the exactly rounded sum of the float64
// images over the count, bit for bit.
func TestQuickIntSumMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	near := []int64{math.MaxInt64, math.MinInt64, 1 << 53, -1 << 53, 0}
	avg := xlm.AggSpec{Out: "mean", Func: "AVG", Col: "v"}
	for iter := 0; iter < 3000; iter++ {
		vals := make([]int64, 1+r.Intn(10))
		for i := range vals {
			c := near[r.Intn(len(near))]
			d := r.Int63n(1 << uint(r.Intn(13)))
			if c > 0 || c == 0 && r.Intn(2) == 0 {
				d = -d // stay inside int64
			}
			vals[i] = c + d
		}
		sum, images := new(big.Int), new(big.Float).SetPrec(256)
		for _, v := range vals {
			sum.Add(sum, big.NewInt(v))
			images.Add(images, new(big.Float).SetFloat64(float64(v)))
		}
		image, _ := images.Float64()
		wantAvg := math.Float64bits(image / float64(len(vals)))
		overflow := !sum.IsInt64()
		for _, vectors := range []bool{false, true, false, true} {
			r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			cut := r.Intn(1<<(len(vals)-1)+1) - 1
			got, err := sumOf(t, vals, vectors, cut)
			switch {
			case overflow && err == nil:
				t.Fatalf("SUM%v (vectors %v, cut %d) = %v; the big sum %v leaves int64", vals, vectors, cut, got, sum)
			case !overflow && (err != nil || got.Kind() != expr.KindInt || got.AsInt() != sum.Int64()):
				t.Fatalf("SUM%v (vectors %v, cut %d) = %v, %v; want %v", vals, vectors, cut, got, err, sum)
			}
			got, err = foldOf(t, avg, intValues(vals), vectors, cut)
			if f, _ := got.AsFloat(); err != nil || math.Float64bits(f) != wantAvg {
				t.Fatalf("AVG%v (vectors %v, cut %d) = %v, %v; want %v", vals, vectors, cut, got, err, math.Float64frombits(wantAvg))
			}
		}
	}
}

// TestQuickFloatSumMatchesBig: float SUMs whose inputs mix integral
// floats (which the fold keeps in 128 bits) with fractions (which go to
// the expansion) — clustered near ±2⁶³, ±2⁵³ and ±0, some of them ints
// in a mixed column — come out as the math/big sum rounded once, in
// every order and partition, through Add, AddVectors and Partials →
// MergeCells; AVG is that sum over the count.
func TestQuickFloatSumMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(2626))
	near := []float64{0x1p63, -0x1p63, 0x1p53, -0x1p53, 0, math.Copysign(0, -1)}
	sum := xlm.AggSpec{Out: "total", Func: "SUM", Col: "v"}
	avg := xlm.AggSpec{Out: "mean", Func: "AVG", Col: "v"}
	for iter := 0; iter < 3000; iter++ {
		vals := make([]expr.Value, 1+r.Intn(10))
		for i := range vals {
			c := near[r.Intn(len(near))]
			d := float64(r.Int63n(1 << uint(r.Intn(13))))
			if r.Intn(3) == 0 {
				d *= 0x1p-20 // a fraction at 0, an integer far out
			}
			if c > 0 || c == 0 && r.Intn(2) == 0 {
				d = -d
			}
			switch f := c + d; {
			case i > 0 && r.Intn(5) == 0 && f == math.Trunc(f) && math.Abs(f) < 0x1p62:
				vals[i] = expr.Int(int64(f))
			default:
				vals[i] = expr.Float(f)
			}
		}
		exact := new(big.Float).SetPrec(2048)
		for _, v := range vals {
			f, _ := v.AsFloat()
			exact.Add(exact, new(big.Float).SetFloat64(f))
		}
		want, _ := exact.Float64()
		if want == 0 {
			want = 0 // an exact zero sums to +0, as zeros are dropped
		}
		for _, vectors := range []bool{false, true, false, true} {
			r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			cut := r.Intn(1<<(len(vals)-1)+1) - 1
			got, err := foldOf(t, sum, vals, vectors, cut)
			if f, _ := got.AsFloat(); err != nil || got.Kind() != expr.KindFloat || math.Float64bits(f) != math.Float64bits(want) {
				t.Fatalf("SUM%v (vectors %v, cut %d) = %v, %v; want %v", vals, vectors, cut, got, err, want)
			}
			got, err = foldOf(t, avg, vals, vectors, cut)
			if f, _ := got.AsFloat(); err != nil || math.Float64bits(f) != math.Float64bits(want/float64(len(vals))) {
				t.Fatalf("AVG%v (vectors %v, cut %d) = %v, %v; want %v", vals, vectors, cut, got, err, want/float64(len(vals)))
			}
		}
	}
}
