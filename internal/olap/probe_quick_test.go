package olap_test

// Join semantics the TPC-H data never exercises, on hand-built tables:
// duplicate dimension keys (fan-out order), NULL and unmatched foreign
// keys, an int fact key meeting a float dimension key, a string-keyed
// dimension, filters that error on some rows, dices. The star-flow
// oracle is the referee for rows, for error text and — every query
// error being a 422 at the server — for the status class.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/storage"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
)

// handTable is one hand-built deployed table.
type handTable struct {
	name string
	cols []storage.Column
	refs string // loader refs: "fk=table.col,..."
	rows []storage.Row
}

// handEngine deploys the tables into db behind a minimal design (one
// datastore → loader pair per table) and returns an engine over them.
func handEngine(t *testing.T, db *storage.DB, tables []handTable) *olap.Engine {
	t.Helper()
	d := xlm.NewDesign("hand")
	for _, ht := range tables {
		tbl, err := db.CreateTable(ht.name, ht.cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.InsertAll(ht.rows); err != nil {
			t.Fatal(err)
		}
		fields := make([]xlm.Field, len(ht.cols))
		for i, c := range ht.cols {
			fields[i] = xlm.Field{Name: c.Name, Type: c.Type}
		}
		params := map[string]string{"table": ht.name}
		if ht.refs != "" {
			params["refs"] = ht.refs
		}
		for _, err := range []error{
			d.AddNode(&xlm.Node{Name: "DS_" + ht.name, Type: xlm.OpDatastore, Fields: fields,
				Params: map[string]string{"store": "src", "table": ht.name + "_src"}}),
			d.AddNode(&xlm.Node{Name: "LOAD_" + ht.name, Type: xlm.OpLoader, Params: params}),
			d.AddEdge("DS_"+ht.name, "LOAD_"+ht.name),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e, err := olap.New(&xmd.Schema{Name: "hand"}, d, db)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func intOrNull(r *rand.Rand, n, nullOneIn int) expr.Value {
	if r.Intn(nullOneIn) == 0 {
		return expr.Null()
	}
	return expr.Int(int64(r.Intn(n)))
}

// handStar generates a three-dimension star. dim_a has an int key with
// duplicates and NULLs; dim_b a float key the fact's int key must meet
// (3 joins 3.0, nothing joins 2.5), with duplicates; dim_c a string
// key. Fact keys range past the dimensions' (unmatched) and are
// sometimes NULL. Fact rows with qty 3 carry a k_c no dim_c row has.
func handStar(r *rand.Rand, facts int) []handTable {
	a := handTable{name: "dim_a", cols: []storage.Column{
		{Name: "a_id", Type: "int"}, {Name: "a_name", Type: "string"}, {Name: "a_rank", Type: "int"}}}
	for i := 0; i < 12; i++ {
		name := expr.Str(fmt.Sprintf("a%d", r.Intn(5)))
		if r.Intn(6) == 0 {
			name = expr.Null()
		}
		a.rows = append(a.rows, storage.Row{intOrNull(r, 7, 8), name, expr.Int(int64(i))})
	}
	b := handTable{name: "dim_b", cols: []storage.Column{
		{Name: "b_id", Type: "float"}, {Name: "b_kind", Type: "string"}, {Name: "b_w", Type: "float"}}}
	for i := 0; i < 10; i++ {
		id := expr.Float(float64(r.Intn(6)))
		if r.Intn(4) == 0 {
			id = expr.Float(float64(r.Intn(6)) + 0.5)
		}
		// MIN keeps the first of -0 and +0 it sees, which makes the
		// order of a key's duplicates visible in the answer.
		w := math.Copysign(0, float64(r.Intn(2))-0.5)
		if r.Intn(3) == 0 {
			w = float64(i) / 4
		}
		b.rows = append(b.rows, storage.Row{id, expr.Str(fmt.Sprintf("k%d", r.Intn(3))), expr.Float(w)})
	}
	c := handTable{name: "dim_c", cols: []storage.Column{
		{Name: "c_code", Type: "string"}, {Name: "c_label", Type: "string"}}}
	for i := 0; i < 8; i++ {
		c.rows = append(c.rows, storage.Row{expr.Str(fmt.Sprintf("c%d", r.Intn(5))), expr.Str(fmt.Sprintf("L%d", i%3))})
	}
	f := handTable{name: "sales", refs: "k_a=dim_a.a_id,k_b=dim_b.b_id,k_c=dim_c.c_code",
		cols: []storage.Column{{Name: "k_a", Type: "int"}, {Name: "k_b", Type: "int"}, {Name: "k_c", Type: "string"},
			{Name: "qty", Type: "int"}, {Name: "tag", Type: "string"}, {Name: "amt", Type: "float"}}}
	for i := 0; i < facts; i++ {
		qty := int64(r.Intn(9))
		kc := expr.Str(fmt.Sprintf("c%d", r.Intn(6)))
		if qty == 3 {
			kc = expr.Str("nowhere")
		} else if r.Intn(10) == 0 {
			kc = expr.Null()
		}
		f.rows = append(f.rows, storage.Row{intOrNull(r, 9, 10), intOrNull(r, 7, 10), kc,
			expr.Int(qty), expr.Str(fmt.Sprintf("t%d", r.Intn(4))), expr.Float(float64(r.Intn(1000)) / 8)})
	}
	return []handTable{a, b, c, f}
}

var (
	handGroups   = []string{"a_name", "a_rank", "b_kind", "c_label", "tag", "qty"}
	handMeasures = []olap.MeasureSpec{
		{Out: "n", Func: "COUNT"}, {Out: "q", Func: "SUM", Col: "qty"}, {Out: "s", Func: "SUM", Col: "amt"},
		{Out: "avg", Func: "AVG", Col: "amt"}, {Out: "lo", Func: "MIN", Col: "a_name"}, {Out: "hi", Func: "MAX", Col: "b_w"},
		{Out: "low", Func: "MIN", Col: "b_w"},
	}
	handFilters = []string{
		"", "", "qty > 3", "a_rank >= 2 AND amt < 50", "b_w > 1.5 OR tag = 't1'", "c_label != 'L0' AND qty < 7",
		"10 / (qty - 3) > 1", // would divide by zero only on rows the dim_c join drops
		"10 / (qty - 4) > 1", // divides by zero on rows that survive
		"tag > 5",            // errors on every row
	}
)

func handQuery(r *rand.Rand) olap.CubeQuery {
	q := olap.CubeQuery{Fact: "sales", Filter: handFilters[r.Intn(len(handFilters))]}
	for _, i := range r.Perm(len(handGroups))[:1+r.Intn(3)] {
		q.GroupBy = append(q.GroupBy, handGroups[i])
	}
	for _, i := range r.Perm(len(handMeasures))[:1+r.Intn(3)] {
		q.Measures = append(q.Measures, handMeasures[i])
	}
	if r.Intn(3) == 0 {
		q.Dice = &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{q.GroupBy[0]: float64(1 + r.Intn(6))}}
		if r.Intn(2) == 0 {
			q.Dice.Func, q.Dice.Col = "SUM", "qty"
			q.Dice.Thresholds[q.GroupBy[len(q.GroupBy)-1]] = float64(r.Intn(40))
		}
	}
	return q
}

// assertSameAnswer runs q on the fast path and the oracle and demands
// the same rows, or the same error.
func assertSameAnswer(t *testing.T, e *olap.Engine, q olap.CubeQuery) (failed bool) {
	t.Helper()
	fast, errF := e.Query(q)
	oracle, errO := e.QueryStarFlow(q)
	if errF != nil || errO != nil {
		if errF == nil || errO == nil || !sameQueryError(errF, errO) {
			t.Fatalf("fast err=%v\noracle err=%v\n(%s)", errF, errO, queryString(q))
		}
		return true
	}
	assertIdentical(t, queryString(q), fast, oracle)
	return false
}

// sameQueryError compares what the evaluator or kernel said, below the
// flow-node prefix the oracle's engine run adds.
func sameQueryError(fast, oracle error) bool {
	return strings.HasSuffix(oracle.Error(), fast.Error())
}

func TestQuickProbeMatchesStarFlowOnHandBuiltStars(t *testing.T) {
	backends := map[string]func(t *testing.T) *storage.DB{
		"mem": func(*testing.T) *storage.DB { return storage.NewMemDB() },
		"disk": func(t *testing.T) *storage.DB {
			db, err := storage.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			var answered, failed int
			for _, seed := range []int64{1, 2, 3} {
				r := rand.New(rand.NewSource(seed))
				// 3000 facts span several probe batches.
				e := handEngine(t, open(t), handStar(r, 3000))
				for i := 0; i < 60; i++ {
					if assertSameAnswer(t, e, handQuery(r)) {
						failed++
					} else {
						answered++
					}
				}
			}
			if answered < 60 || failed < 10 {
				t.Fatalf("generator drifted: %d answers, %d errors", answered, failed)
			}
		})
	}
}

// TestProbeFanOutOrder pins the joined row order for a fact row that
// matches several rows of several dimensions: build insertion order,
// the last join varying fastest. Sorted answers hide it; the partial's
// groups come in first-seen order.
func TestProbeFanOutOrder(t *testing.T) {
	e := handEngine(t, storage.NewMemDB(), []handTable{
		{name: "dim_a", cols: []storage.Column{{Name: "a_id", Type: "int"}, {Name: "a_name", Type: "string"}},
			rows: []storage.Row{{expr.Int(1), expr.Str("y")}, {expr.Int(2), expr.Str("z")}, {expr.Int(1), expr.Str("x")}}},
		{name: "dim_b", cols: []storage.Column{{Name: "b_id", Type: "string"}, {Name: "b_kind", Type: "string"}},
			rows: []storage.Row{{expr.Str("k"), expr.Str("q")}, {expr.Str("k"), expr.Str("p")}}},
		{name: "sales", refs: "k_a=dim_a.a_id,k_b=dim_b.b_id",
			cols: []storage.Column{{Name: "k_a", Type: "int"}, {Name: "k_b", Type: "string"}},
			rows: []storage.Row{{expr.Int(1), expr.Str("k")}}},
	})
	part, err := e.QueryPartial(olap.CubeQuery{Fact: "sales", GroupBy: []string{"a_name", "b_kind"},
		Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT"}}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range part.Groups {
		got = append(got, g.Group[0].AsString()+g.Group[1].AsString())
	}
	if want := "yq yp xq xp"; strings.Join(got, " ") != want {
		t.Fatalf("fan-out order %q, want %q", strings.Join(got, " "), want)
	}
}

// TestProbeFixedJoinCases pins the cases the random mix only probably
// reaches.
func TestProbeFixedJoinCases(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tables := handStar(r, 2500)
	e := handEngine(t, db, tables)
	count := []olap.MeasureSpec{{Out: "n", Func: "COUNT"}}

	t.Run("int fact key meets float dimension key", func(t *testing.T) {
		q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"b_kind"}, Measures: count}
		assertSameAnswer(t, e, q)
		res, err := e.Query(q)
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("no int fact key met a float dimension key: rows=%v err=%v", res, err)
		}
	})
	t.Run("dice over fanned-out rows", func(t *testing.T) {
		assertSameAnswer(t, e, olap.CubeQuery{Fact: "sales", GroupBy: []string{"a_rank", "c_label"},
			Measures: []olap.MeasureSpec{{Out: "s", Func: "SUM", Col: "amt"}},
			Dice:     &olap.DiceSpec{Func: "SUM", Col: "amt", Thresholds: map[string]float64{"a_rank": 900, "c_label": 2000}}})
	})
	t.Run("filter errors only on rows a later join drops", func(t *testing.T) {
		q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"a_name", "c_label"}, Measures: count,
			Filter: "10 / (qty - 3) > 1"}
		if assertSameAnswer(t, e, q) {
			t.Fatal("the filter saw a row the dim_c join drops")
		}
		// Without the dim_c join the same rows reach the filter.
		q.GroupBy = []string{"a_name"}
		if !assertSameAnswer(t, e, q) {
			t.Fatal("the filter never saw a qty-3 row")
		}
	})
	t.Run("coded fact-only group key leaves page-cache rows alone", func(t *testing.T) {
		q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"tag"}, Measures: count}
		first, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswer(t, e, q) // second run, over the same cached pages
		second, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "repeat", second, first)
		snap, err := db.Snapshot("sales")
		if err != nil {
			t.Fatal(err)
		}
		view, _ := snap.Table("sales")
		tag, _ := view.ColumnIndex("tag")
		cur := view.Cursor(nil)
		for batch := cur.Next(512); batch != nil; batch = cur.Next(512) {
			for _, row := range batch {
				if row[tag].Kind() != expr.KindString {
					t.Fatalf("stored tag became %s", encodeValue(row[tag]))
				}
			}
		}
	})
}
