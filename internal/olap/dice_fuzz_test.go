package olap_test

import (
	"math"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/storage"
)

// FuzzDiceMatchesOracle builds a tiny star from the fuzzer's bytes —
// each byte a choice among a column's values (NULL, ±0, NaN, +Inf,
// negative numbers, ints at the edge of int64), the query's group
// columns and measures, the dice's carat and thresholds — and demands
// the same rows, or the same error, from the fast path and the oracle.
func FuzzDiceMatchesOracle(f *testing.F) {
	for _, seed := range [][]byte{
		{3, 1, 1, 2, 2, 2, 1, 6, 1, 3, 3, 1, 4, 4, 1, 5, 5, 1, 4, 0, 0, 0, 1, 2, 1, 1, 5},
		{2, 1, 1, 1, 2, 2, 2, 5, 1, 1, 1, 1, 1, 2, 0, 1, 1, 0, 0, 1, 7, 2, 3, 0, 2},
		{4, 1, 1, 9, 2, 2, 10, 3, 0, 8, 4, 1, 1, 8, 6, 2, 2, 9, 6, 3, 3, 7, 0, 2, 2, 2, 1, 3, 6},
		{1, 0, 3, 2, 1, 0, 1, 6, 6, 2, 0, 1, 6, 6, 2, 0, 2, 3, 3, 63, 1, 0, 4, 6},
	} {
		f.Add(seed)
	}
	var (
		ints   = []expr.Value{expr.Null(), expr.Int(0), expr.Int(1), expr.Int(2), expr.Int(3), expr.Int(-1), expr.Int(math.MaxInt64), expr.Int(math.MinInt64)}
		floats = []expr.Value{expr.Null(), expr.Float(0), expr.Float(math.Copysign(0, -1)), expr.Float(0.1), expr.Float(0.2), expr.Float(0.3),
			expr.Float(1), expr.Float(2.5), expr.Float(-1), expr.Float(math.NaN()), expr.Float(math.Inf(1)), expr.Float(1e308)}
		names      = []expr.Value{expr.Null(), expr.Str("p"), expr.Str("q"), expr.Str("r")}
		groups     = []string{"g", "d_name", "d_w", "n"}
		measures   = []olap.MeasureSpec{{Out: "c", Func: "COUNT"}, {Out: "sv", Func: "SUM", Col: "v"}, {Out: "sn", Func: "SUM", Col: "n"}, {Out: "lo", Func: "MIN", Col: "v"}, {Out: "hi", Func: "MAX", Col: "d_w"}, {Out: "avg", Func: "AVG", Col: "v"}}
		carats     = []*olap.DiceSpec{{Func: "COUNT"}, {Func: "SUM", Col: "v"}, {Func: "SUM", Col: "n"}}
		thresholds = []float64{0, 0.5, 1, 2, 3, 0.6, math.Nextafter(0.6, 1)}
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		dim := handTable{name: "dim", cols: []storage.Column{{Name: "d_id", Type: "int"}, {Name: "d_name", Type: "string"}, {Name: "d_w", Type: "float"}}}
		for i, n := 0, pick(5); i < n; i++ {
			dim.rows = append(dim.rows, storage.Row{ints[pick(5)], names[pick(len(names))], floats[pick(len(floats))]})
		}
		fact := handTable{name: "sales", refs: "k=dim.d_id", cols: []storage.Column{
			{Name: "k", Type: "int"}, {Name: "g", Type: "float"}, {Name: "v", Type: "float"}, {Name: "n", Type: "int"}}}
		for i, n := 0, pick(24); i < n; i++ {
			fact.rows = append(fact.rows, storage.Row{ints[pick(5)], floats[pick(len(floats))], floats[pick(len(floats))], ints[pick(len(ints))]})
		}
		q := olap.CubeQuery{Fact: "sales"}
		for j, mask := 0, 1+pick(15); j < len(groups); j++ {
			if mask>>j&1 != 0 {
				q.GroupBy = append(q.GroupBy, groups[j])
			}
		}
		for j, mask := 0, 1+pick(63); j < len(measures); j++ {
			if mask>>j&1 != 0 {
				q.Measures = append(q.Measures, measures[j])
			}
		}
		carat := *carats[pick(len(carats))]
		carat.Thresholds = map[string]float64{}
		for _, g := range q.GroupBy {
			if pick(2) == 0 || len(carat.Thresholds) == 0 {
				carat.Thresholds[g] = thresholds[pick(len(thresholds))]
			}
		}
		q.Dice = &carat
		e := handEngine(t, storage.NewMemDB(), []handTable{dim, fact})
		fast, errF := e.Query(q)
		oracle, errO := e.QueryStarFlow(q)
		if errF != nil || errO != nil {
			if errF == nil || errO == nil || !sameQueryError(errF, errO) {
				t.Fatalf("fast err=%v\noracle err=%v\n(%s)", errF, errO, queryString(q))
			}
			return
		}
		assertIdentical(t, queryString(q), fast, oracle)
	})
}
