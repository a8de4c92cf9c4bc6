package olap_test

import (
	"fmt"
	"math"
	"slices"
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
// Its sharded arm cuts the fact's rows into 1–3 runs, by one more byte,
// one hand-built engine per run, and gathers their frames through
// shard.Merge: the single node's rows or its error again. Its entry arm
// materializes the query's cube grouped by every fact column too, and
// answers the query, and its partial, from that entry: at the entry's
// own granularity or merged to a coarser one, the single node's rows
// or its error once more.
func FuzzDiceMatchesOracle(f *testing.F) {
	for _, seed := range [][]byte{
		{3, 1, 1, 2, 2, 2, 1, 6, 1, 3, 3, 1, 4, 4, 1, 5, 5, 1, 4, 0, 0, 0, 1, 2, 1, 1, 5},
		{2, 1, 1, 1, 2, 2, 2, 5, 1, 1, 1, 1, 1, 2, 0, 1, 1, 0, 0, 1, 7, 2, 3, 0, 2},
		{4, 1, 1, 9, 2, 2, 10, 3, 0, 8, 4, 1, 1, 8, 6, 2, 2, 9, 6, 3, 3, 7, 0, 2, 2, 2, 1, 3, 6},
		{1, 0, 3, 2, 1, 0, 1, 6, 6, 2, 0, 1, 6, 6, 2, 0, 2, 3, 3, 63, 1, 0, 4, 6},
		// Three shards: −0 on the first and third, +0 on the second and
		// third; the ±0 slice alone reaches the threshold.
		{1, 1, 1, 1, 6, 1, 2, 6, 2, 1, 1, 6, 2, 1, 6, 6, 2, 1, 1, 6, 2, 1, 2, 6, 2, 1, 7, 6, 2, 0, 2, 0, 0, 3, 5},
		// Two shards, a negative SUM carat value on the second.
		{2, 1, 1, 1, 2, 2, 1, 4, 1, 6, 6, 2, 2, 6, 6, 2, 1, 6, 6, 2, 2, 6, 8, 2, 1, 1, 1, 0, 2, 10},
		// Two shards whose int sums, MaxInt64 and 1, overflow once merged.
		{1, 1, 1, 1, 2, 1, 6, 6, 6, 1, 6, 6, 2, 1, 3, 0, 0, 0, 4},
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
		split := pick(256)
		cuts := []int{0, len(fact.rows)}
		for k := 1; k <= split%3; k++ {
			cuts = append(cuts, split/3*(2*k-1)%(len(fact.rows)+1))
		}
		slices.Sort(cuts)
		shards := make([]*olap.Engine, len(cuts)-1)
		for k := range shards {
			part := fact
			part.rows = fact.rows[cuts[k]:cuts[k+1]]
			shards[k] = handEngine(t, storage.NewMemDB(), []handTable{dim, part})
		}
		e := handEngine(t, storage.NewMemDB(), []handTable{dim, fact})
		fast, errF := e.Query(q)
		oracle, errO := e.QueryStarFlow(q)
		gathered, errG := gatherEngines(t, shards, q)
		m := olap.NewMatAgg(1)
		me := e.WithMatAgg(m)
		wide := q
		wide.GroupBy = append(slices.DeleteFunc(slices.Clone(q.GroupBy), func(g string) bool { return g == "g" || g == "n" }), "g", "n")
		_, _ = me.Query(wide)
		if _, err := m.Refresh(me); err != nil {
			t.Fatal(err)
		}
		entry, errE := me.Query(q)
		entryPart, errP := gatherEngines(t, []*olap.Engine{me}, q)
		if st := m.Stats(); st.Hits+st.Rewrites != 2 {
			t.Fatalf("the query and its partial were not both served from the entry: %+v (%s)", st, queryString(q))
		}
		if errF != nil || errO != nil || errG != nil || errE != nil || errP != nil {
			if errF == nil || errO == nil || errG == nil || errE == nil || errP == nil || !sameQueryError(errF, errO) ||
				errG.Error() != errF.Error() || errE.Error() != errF.Error() || errP.Error() != errF.Error() {
				t.Fatalf("fast err=%v\noracle err=%v\ngather over %d shards err=%v\nfrom an entry err=%v\npartial from an entry err=%v\n(%s)",
					errF, errO, len(shards), errG, errE, errP, queryString(q))
			}
			return
		}
		assertIdentical(t, queryString(q), fast, oracle)
		assertIdentical(t, fmt.Sprintf("gather over %d shards: %s", len(shards), queryString(q)), gathered, oracle)
		assertIdentical(t, "from an entry: "+queryString(q), entry, oracle)
		assertIdentical(t, "partial from an entry: "+queryString(q), entryPart, oracle)
	})
}
