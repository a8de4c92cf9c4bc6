package olap_test

// The diamond's semantics, on both executors: carats are exact sums
// (row order cannot move the diamond), a slice is a group value (−0 and
// +0 are one), errors are the query's (not the rows'), and the
// theorems of Webb, Kaser and Lemire hold on the hand-built dirty
// stars.

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/storage"
)

// shopStar is a fact-only star: a shop per row, a float amount and a
// string note, in the order given.
func shopStar(t *testing.T, rows ...storage.Row) *olap.Engine {
	return handEngine(t, storage.NewMemDB(), []handTable{{name: "sales", cols: []storage.Column{
		{Name: "shop", Type: "string"}, {Name: "amt", Type: "float"}, {Name: "note", Type: "string"}}, rows: rows}})
}

func shopRow(shop string, amt float64, note expr.Value) storage.Row {
	return storage.Row{expr.Str(shop), expr.Float(amt), note}
}

// bothAnswer runs q on the fast path and on the oracle and demands
// identical rows.
func bothAnswer(t *testing.T, e *olap.Engine, q olap.CubeQuery) *olap.Result {
	t.Helper()
	fast, errF := e.Query(q)
	oracle, errO := e.QueryStarFlow(q)
	if errF != nil || errO != nil {
		t.Fatalf("fast err=%v\noracle err=%v\n(%s)", errF, errO, queryString(q))
	}
	assertIdentical(t, queryString(q), fast, oracle)
	return fast
}

// bothFail demands that q fails alike on the fast path and on the
// oracle, with an error that says want.
func bothFail(t *testing.T, e *olap.Engine, q olap.CubeQuery, want string) {
	t.Helper()
	_, errF := e.Query(q)
	_, errO := e.QueryStarFlow(q)
	if errF == nil || errO == nil || !sameQueryError(errF, errO) || !strings.Contains(errF.Error(), want) {
		t.Fatalf("fast err=%v\noracle err=%v\nwant both %q (%s)", errF, errO, want, queryString(q))
	}
}

func TestDiceIgnoresRowOrder(t *testing.T) {
	// 0.1 + 0.2 + 0.3 is 0.6000000000000001 added in this order and 0.6
	// in the reverse one; the exact sum rounds to 0.6.
	amts := []float64{0.1, 0.2, 0.3}
	k := math.Nextafter(0.6, 1)
	q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"shop"}, Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT"}},
		Dice: &olap.DiceSpec{Func: "SUM", Col: "amt", Thresholds: map[string]float64{"shop": k}}}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		rows := []storage.Row{shopRow("y", 1, expr.Null())}
		for _, i := range order {
			rows = append(rows, shopRow("x", amts[i], expr.Null()))
		}
		got := encodeResult(bothAnswer(t, shopStar(t, rows...), q))
		if want := []string{"columns: shop, n", "string:'y' | int:1"}; !slices.Equal(got, want) {
			t.Fatalf("order %v: diamond %q, want %q", order, got, want)
		}
	}
}

func TestDiceSignedZeroIsOneSlice(t *testing.T) {
	e := handEngine(t, storage.NewMemDB(), []handTable{{name: "sales",
		cols: []storage.Column{{Name: "w", Type: "float"}},
		rows: []storage.Row{{expr.Float(math.Copysign(0, -1))}, {expr.Float(math.Copysign(0, -1))}, {expr.Float(0)}}}})
	q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"w"}, Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT"}}}
	undiced := bothAnswer(t, e, q)
	if len(undiced.Rows) != 1 || undiced.Rows[0][1].AsInt() != 3 {
		t.Fatalf("undiced: %q, want one group of 3", encodeResult(undiced))
	}
	q.Dice = &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"w": 3}}
	assertIdentical(t, "diced", bothAnswer(t, e, q), undiced)
}

func TestDiceErrorsAreTheQuerys(t *testing.T) {
	count := []olap.MeasureSpec{{Out: "n", Func: "COUNT"}}
	t.Run("negative carat", func(t *testing.T) {
		e := shopStar(t, shopRow("x", 2, expr.Null()), shopRow("y", -1, expr.Null()), shopRow("y", 5, expr.Null()))
		bothFail(t, e, olap.CubeQuery{Fact: "sales", GroupBy: []string{"shop"}, Measures: count,
			Dice: &olap.DiceSpec{Func: "SUM", Col: "amt", Thresholds: map[string]float64{"shop": 1}}},
			`olap: dice SUM carat over "amt" requires non-negative values`)
	})
	t.Run("NaN carat", func(t *testing.T) {
		// Pruning the NaN row would raise its slices' carats from NaN.
		e := shopStar(t, shopRow("x", 2, expr.Null()), shopRow("y", math.NaN(), expr.Null()), shopRow("y", 5, expr.Null()))
		bothFail(t, e, olap.CubeQuery{Fact: "sales", GroupBy: []string{"shop"}, Measures: count,
			Dice: &olap.DiceSpec{Func: "SUM", Col: "amt", Thresholds: map[string]float64{"shop": 1}}},
			`olap: dice SUM carat over "amt" requires non-negative values`)
	})
	t.Run("non-numeric carat column", func(t *testing.T) {
		// Every note is NULL: no row carries a value to fail on.
		e := shopStar(t, shopRow("x", 2, expr.Null()), shopRow("y", 1, expr.Null()))
		bothFail(t, e, olap.CubeQuery{Fact: "sales", GroupBy: []string{"shop"}, Measures: count,
			Dice: &olap.DiceSpec{Func: "SUM", Col: "note", Thresholds: map[string]float64{"shop": 1}}},
			`olap: dice SUM carat over non-numeric column "note" (string)`)
	})
	t.Run("SUM over strings only in pruned cells", func(t *testing.T) {
		e := shopStar(t, shopRow("x", 1, expr.Null()), shopRow("x", 1, expr.Null()), shopRow("y", 1, expr.Str("a")))
		bothFail(t, e, olap.CubeQuery{Fact: "sales", GroupBy: []string{"shop"}, Measures: []olap.MeasureSpec{{Out: "s", Func: "SUM", Col: "note"}},
			Dice: &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"shop": 2}}},
			`olap: SUM over non-numeric column "note" (string)`)
	})
}

// TestQuickDiamondTheorems checks the diamond against the undiced cube
// it is cut from, on hand-built dirty stars (fan-out, NULL and
// dangling keys, ±0 group values):
//   - it is the sub-cube of the cells whose diced values it keeps;
//   - every kept slice meets its threshold;
//   - no removed slice can be re-added without breaking one;
//   - raising a threshold yields a subset;
//   - permuting the fact's rows changes nothing;
//   - COUNT carats of 1 keep every cell.
func TestQuickDiamondTheorems(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	var draws, pruned int
	for star := 0; star < 4; star++ {
		tables := handStar(r, 150, "dense")
		e := handEngine(t, storage.NewMemDB(), tables)
		shuffled := slices.Clone(tables)
		fact := &shuffled[len(shuffled)-1]
		fact.rows = slices.Clone(fact.rows)
		r.Shuffle(len(fact.rows), func(i, j int) { fact.rows[i], fact.rows[j] = fact.rows[j], fact.rows[i] })
		permuted := handEngine(t, storage.NewMemDB(), shuffled)
		for i := 0; i < 12; i++ {
			q := handQuery(r)
			q.Dice = nil
			q.Measures = []olap.MeasureSpec{[]olap.MeasureSpec{
				{Out: "c", Func: "COUNT"}, {Out: "c", Func: "SUM", Col: "qty"}, {Out: "c", Func: "SUM", Col: "amt"}}[r.Intn(3)]}
			carat := &olap.DiceSpec{Func: q.Measures[0].Func, Col: q.Measures[0].Col, Thresholds: map[string]float64{}}
			cube, err := e.Query(q)
			if err != nil {
				continue // the filter fails: no cube to cut
			}
			draws++
			// Thresholds are carats some slice of the cube has, or 0.
			for _, g := range r.Perm(len(q.GroupBy))[:1+r.Intn(min(2, len(q.GroupBy)))] {
				k := 0.0
				if len(cube.Rows) > 0 && r.Intn(4) != 0 {
					k = sliceCarats(cube, g)[sliceKey(cube.Rows[r.Intn(len(cube.Rows))][g])]
				}
				carat.Thresholds[q.GroupBy[g]] = k
			}
			q.Dice = carat
			diamond := bothAnswer(t, e, q)
			if len(diamond.Rows) < len(cube.Rows) {
				pruned++
			}
			label := queryString(q)
			checkDiamond(t, label, q, cube, diamond)

			raised := *carat
			raised.Thresholds = map[string]float64{}
			for c, k := range carat.Thresholds {
				raised.Thresholds[c] = k + float64(r.Intn(3))
			}
			q.Dice = &raised
			if higher, err := e.Query(q); err != nil || !subset(encodeResult(higher), encodeResult(diamond)) {
				t.Fatalf("%s: raised to %v: not a subset (err %v)", label, raised.Thresholds, err)
			}

			q.Dice = carat
			again, err := permuted.Query(q)
			if err != nil || !slices.Equal(normalised(again), normalised(diamond)) {
				t.Fatalf("%s: the fact's row order moved the diamond (err %v)", label, err)
			}

			q.Dice = &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{}}
			for _, g := range q.GroupBy {
				q.Dice.Thresholds[g] = 1
			}
			ones, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, label+": COUNT carats of 1", ones, cube)
		}
	}
	t.Logf("%d draws, %d of them pruned a cell", draws, pruned)
	if draws < 30 || pruned < draws/4 {
		t.Fatalf("generator drifted: %d draws, %d of them pruned a cell", draws, pruned)
	}
}

// checkDiamond checks the diamond against the cube of the same query
// undiced, whose one measure is the carat.
func checkDiamond(t *testing.T, label string, q olap.CubeQuery, cube, diamond *olap.Result) {
	t.Helper()
	var diced []int // group positions
	for g, c := range q.GroupBy {
		if _, ok := q.Dice.Thresholds[c]; ok {
			diced = append(diced, g)
		}
	}
	kept := make([]map[string]bool, len(q.GroupBy))
	for _, g := range diced {
		kept[g] = map[string]bool{}
		for _, row := range diamond.Rows {
			kept[g][sliceKey(row[g])] = true
		}
	}
	// within returns the cube's cells whose diced values are kept, with
	// slice v of group column extra added back.
	within := func(extra int, v string) *olap.Result {
		sub := &olap.Result{Columns: cube.Columns}
	cells:
		for _, row := range cube.Rows {
			for _, g := range diced {
				if k := sliceKey(row[g]); !kept[g][k] && (g != extra || k != v) {
					continue cells
				}
			}
			sub.Rows = append(sub.Rows, row)
		}
		return sub
	}
	assertIdentical(t, label+": the diamond is the sub-cube of its slices", diamond, within(-1, ""))
	// meets reports whether every slice of sub meets its threshold.
	meets := func(sub *olap.Result) bool {
		for _, g := range diced {
			for _, c := range sliceCarats(sub, g) {
				if c < q.Dice.Thresholds[q.GroupBy[g]] {
					return false
				}
			}
		}
		return true
	}
	if !meets(diamond) {
		t.Fatalf("%s: a kept slice is below its threshold", label)
	}
	for _, g := range diced {
		for v := range sliceCarats(cube, g) {
			if kept[g][v] {
				continue
			}
			if bigger := within(g, v); len(bigger.Rows) > len(diamond.Rows) && meets(bigger) {
				t.Fatalf("%s: slice %s of %s re-adds without breaking one", label, v, q.GroupBy[g])
			}
		}
	}
}

// sliceKey names a group value's slice: −0 and +0 are one.
func sliceKey(v expr.Value) string {
	if f, ok := v.AsFloat(); ok && v.Kind() == expr.KindFloat {
		v = expr.Float(f + 0)
	}
	return encodeValue(v)
}

// sliceCarats sums the carat column (the one measure) of res by the
// slices of group column g, exactly.
func sliceCarats(res *olap.Result, g int) map[string]float64 {
	sums := map[string]*engine.FloatSum{}
	carat := len(res.Columns) - 1
	for _, row := range res.Rows {
		k := sliceKey(row[g])
		if sums[k] == nil {
			sums[k] = &engine.FloatSum{}
		}
		if f, ok := row[carat].AsFloat(); ok {
			sums[k].Add(f)
		}
	}
	out := make(map[string]float64, len(sums))
	for k, s := range sums {
		out[k] = s.Round()
	}
	return out
}

// subset reports whether every line of sub is a line of of.
func subset(sub, of []string) bool {
	for _, line := range sub {
		if !slices.Contains(of, line) {
			return false
		}
	}
	return true
}

// normalised is res's lines with −0 read as +0 in group values, sorted:
// a group's first row, which a permutation moves, picks its sign.
func normalised(res *olap.Result) []string {
	var out []string
	for _, row := range res.Rows {
		vals := make([]string, len(row))
		for i, v := range row {
			vals[i] = sliceKey(v)
		}
		out = append(out, strings.Join(vals, " | "))
	}
	slices.Sort(out)
	return out
}
