package engine

import (
	"math"
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
// runs aggregated apart and merged by FinalizePartials.
func sumOf(t *testing.T, vals []int64, vectors bool, cut int) (expr.Value, error) {
	t.Helper()
	fold := func(vals []int64) *HashAggregator {
		a, err := NewHashAggregator(nil, sumAggs, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if vectors {
			err = a.AddVectors(len(vals), nil, []Column{{Vec: &storage.Vector{Kind: expr.KindInt, Ints: vals}}})
		} else {
			rows := make([][]expr.Value, len(vals))
			for i, v := range vals {
				rows[i] = []expr.Value{expr.Int(v)}
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
		rows, err = fold(vals).Finalize()
	} else {
		var parts [][]AggPartial
		for start, i := 0, 1; i <= len(vals); i++ {
			if i == len(vals) || cut>>(i-1)&1 == 1 {
				parts = append(parts, fold(vals[start:i]).Partials())
				start = i
			}
		}
		rows, err = FinalizePartials(0, sumAggs, parts...)
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
