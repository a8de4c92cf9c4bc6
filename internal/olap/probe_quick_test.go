package olap_test

// Join semantics the TPC-H data never exercises, on hand-built tables:
// duplicate dimension keys (fan-out order), NULL and unmatched foreign
// keys, an int fact key meeting a float dimension key, a string-keyed
// dimension, an empty dimension, int keys dense, sparse and beyond 2⁵³
// (one per key index representation), filters that error on some rows,
// dices — on a memory database, on a checkpointed disk database whose
// dimensions span several pages with differing page dictionaries, and
// on a disk database with committed segments plus an unpersisted tail.
// The star-flow oracle is the referee for rows, for error text and —
// every query error being a 422 at the server — for the status class.

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
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
// datastore → loader pair per table), checkpoints, and returns an
// engine over them.
func handEngine(t *testing.T, db *storage.DB, tables []handTable) *olap.Engine {
	return handEngineWithTail(t, db, tables, 0)
}

// handEngineWithTail is handEngine with the last tail-th part of every
// table's rows inserted after the checkpoint: on a disk database those
// rows are the in-memory tail behind the committed segments.
func handEngineWithTail(t *testing.T, db *storage.DB, tables []handTable, tail float64) *olap.Engine {
	t.Helper()
	d := xlm.NewDesign("hand")
	late := map[*storage.Table][]storage.Row{}
	for _, ht := range tables {
		tbl, err := db.CreateTable(ht.name, ht.cols)
		if err != nil {
			t.Fatal(err)
		}
		cut := len(ht.rows) - int(tail*float64(len(ht.rows)))
		if err := tbl.InsertAll(ht.rows[:cut]); err != nil {
			t.Fatal(err)
		}
		late[tbl] = ht.rows[cut:]
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
	for tbl, rows := range late {
		if err := tbl.InsertAll(rows); err != nil {
			t.Fatal(err)
		}
	}
	e, err := olap.New(&xmd.Schema{Name: "hand"}, d, db, nil)
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

// keyShapes are the int key domains of dim_a, one per key index the
// fast path can choose (and one where ints share float64 images): the
// same function maps the dimension's keys and the fact's foreign keys.
var keyShapes = map[string]func(k int64) int64{
	"dense":  func(k int64) int64 { return k },
	"sparse": func(k int64) int64 { return k*1_000_003 - 3_000_000 },
	"huge":   func(k int64) int64 { return 1<<53 - 3 + k }, // 2⁵³+1 and 2⁵³ are one float64, and two keys
}

// pad is a dimension's filler column: wide enough that forty rows span
// four pages, so every dimension column meets several page
// dictionaries.
func pad(r *rand.Rand) expr.Value {
	return expr.Str(fmt.Sprintf("%06d", r.Intn(1e6)) + strings.Repeat("-", 7000))
}

// handStar generates a four-dimension star. dim_a has an int key of
// the given shape with duplicates and NULLs; dim_b a float key the
// fact's int key must meet (3 joins 3.0, 2⁵³ joins 2⁵³ but not 2⁵³+1,
// nothing joins 2.5 or NaN), with duplicates; dim_c a string key; dim_e
// no rows at all. Dimension rows are wide (pad), their attribute values
// drift from page to page (a_name, b_kind: overlapping but different
// page dictionaries), b_zone changes once in ten rows (run-length
// chunks) but for a run of NaNs of three payloads, and a_rank and
// a_page are narrow int ranges (bit-packed chunks), a_page's across
// 2⁵³, where 2⁵³ and 2⁵³+1 share a float64 image. Fact keys range past the dimensions' (unmatched) and
// are sometimes NULL. Fact rows with qty 3 carry a k_c no dim_c row
// has.
func handStar(r *rand.Rand, facts int, shape string) []handTable {
	key := keyShapes[shape]
	a := handTable{name: "dim_a", cols: []storage.Column{
		{Name: "a_id", Type: "int"}, {Name: "a_name", Type: "string"}, {Name: "a_rank", Type: "int"},
		{Name: "a_page", Type: "int"}, {Name: "a_pad", Type: "string"}}}
	for i := 0; i < 40; i++ {
		name := expr.Str(fmt.Sprintf("a%d", i/10+r.Intn(3)))
		if r.Intn(6) == 0 {
			name = expr.Null()
		}
		id := expr.Null()
		if r.Intn(8) != 0 {
			id = expr.Int(key(int64(r.Intn(7))))
		}
		a.rows = append(a.rows, storage.Row{id, name, expr.Int(int64(100 + i)), expr.Int(1<<53 - 2 + int64(i/10)), pad(r)})
	}
	b := handTable{name: "dim_b", cols: []storage.Column{
		{Name: "b_id", Type: "float"}, {Name: "b_kind", Type: "string"}, {Name: "b_w", Type: "float"},
		{Name: "b_zone", Type: "float"}, {Name: "b_pad", Type: "string"}}}
	for i := 0; i < 30; i++ {
		id := expr.Float(float64(r.Intn(6)))
		if r.Intn(4) == 0 {
			id = expr.Float(float64(r.Intn(6)) + 0.5)
		}
		// -0 and +0 compare equal and are different answers: MIN and MAX
		// must choose between them alike however the rows reach the fold.
		w := math.Copysign(0, float64(r.Intn(2))-0.5)
		if r.Intn(3) == 0 {
			w = float64(i) / 4
		}
		zone := expr.Float(float64(i / 10))
		switch {
		case i/10 == 1:
			zone = nanOf([]uint64{0x7ff8000000000001, 0x7ff8000000000002, 0xfff8000000000000}[i%3])
		case i == 7:
			id = expr.Float(1 << 53)
		case i == 8:
			id = expr.Float(math.NaN())
		}
		b.rows = append(b.rows, storage.Row{id, expr.Str(fmt.Sprintf("k%d", i/10+r.Intn(2))), expr.Float(w), zone, pad(r)})
	}
	c := handTable{name: "dim_c", cols: []storage.Column{
		{Name: "c_code", Type: "string"}, {Name: "c_label", Type: "string"}}}
	for i := 0; i < 8; i++ {
		c.rows = append(c.rows, storage.Row{expr.Str(fmt.Sprintf("c%d", r.Intn(5))), expr.Str(fmt.Sprintf("L%d", i%3))})
	}
	e := handTable{name: "dim_e", cols: []storage.Column{{Name: "e_id", Type: "int"}, {Name: "e_label", Type: "string"}}}
	f := handTable{name: "sales", refs: "k_a=dim_a.a_id,k_b=dim_b.b_id,k_c=dim_c.c_code,k_e=dim_e.e_id",
		cols: []storage.Column{{Name: "k_a", Type: "int"}, {Name: "k_b", Type: "int"}, {Name: "k_c", Type: "string"},
			{Name: "k_e", Type: "int"}, {Name: "qty", Type: "int"}, {Name: "tag", Type: "string"}, {Name: "amt", Type: "float"}}}
	for i := 0; i < facts; i++ {
		qty := int64(r.Intn(9))
		kc := expr.Str(fmt.Sprintf("c%d", r.Intn(6)))
		if qty == 3 {
			kc = expr.Str("nowhere")
		} else if r.Intn(10) == 0 {
			kc = expr.Null()
		}
		ka := expr.Null()
		if r.Intn(10) != 0 {
			ka = expr.Int(key(int64(r.Intn(9))))
		}
		tag := expr.Str(fmt.Sprintf("t%d", r.Intn(4)))
		if r.Intn(12) == 0 {
			tag = expr.Null()
		}
		kb := intOrNull(r, 7, 10)
		if kb.AsInt() == 6 { // 2⁵³ meets dim_b's 2⁵³; 2⁵³+1, one float64 with it, meets nothing
			kb = expr.Int(1<<53 + int64(i%2))
		}
		f.rows = append(f.rows, storage.Row{ka, kb, kc, expr.Int(int64(r.Intn(3))),
			expr.Int(qty), tag, expr.Float(float64(r.Intn(1000)) / 8)})
	}
	return []handTable{a, b, c, e, f}
}

var (
	handGroups   = []string{"a_name", "a_rank", "a_page", "b_kind", "b_w", "b_zone", "c_label", "tag", "qty"}
	handMeasures = []olap.MeasureSpec{
		{Out: "n", Func: "COUNT"}, {Out: "q", Func: "SUM", Col: "qty"}, {Out: "s", Func: "SUM", Col: "amt"},
		{Out: "avg", Func: "AVG", Col: "amt"}, {Out: "lo", Func: "MIN", Col: "a_name"}, {Out: "hi", Func: "MAX", Col: "b_w"},
		{Out: "low", Func: "MIN", Col: "b_w"},
	}
	handFilters = []string{
		"", "", "qty > 3", "a_rank >= 102 AND amt < 50", "b_w > 1.5 OR tag = 't1'", "c_label != 'L0' AND qty < 7",
		"a_name = 'a2' AND qty != 4", "tag != 't0'", // a leading conjunct on one dictionary-coded column
		"a_page = 9007199254740993", "a_page > 9007199254740992.0", // ints beside 2⁵³, against an int and a float
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
	if r.Intn(8) == 0 {
		q.GroupBy = append(q.GroupBy, "e_label")
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

// assertSameAnswer runs q on the fast path, through QueryPartial and
// the gather's frame and merge as a one-shard fleet (the shard route),
// and on the oracle, and demands the same rows, or the same error.
func assertSameAnswer(t *testing.T, e *olap.Engine, q olap.CubeQuery) (failed bool) {
	t.Helper()
	fast, errF := e.Query(q)
	oracle, errO := e.QueryStarFlow(q)
	partial, errP := gatherEngines(t, []*olap.Engine{e}, q)
	if errF != nil || errO != nil || errP != nil {
		if errF == nil || errO == nil || errP == nil || !sameQueryError(errF, errO) || errP.Error() != errF.Error() {
			t.Fatalf("fast err=%v\npartial err=%v\noracle err=%v\n(%s)", errF, errP, errO, queryString(q))
		}
		return true
	}
	assertIdentical(t, queryString(q), fast, oracle)
	assertIdentical(t, "partial: "+queryString(q), partial, oracle)
	return false
}

// sameQueryError compares what the evaluator or kernel said, below the
// flow-node prefix the oracle's engine run adds.
func sameQueryError(fast, oracle error) bool {
	return strings.HasSuffix(oracle.Error(), fast.Error())
}

// handBackends are the storage shapes every hand-built star runs on.
var handBackends = map[string]func(t *testing.T, tables []handTable) *olap.Engine{
	"mem": func(t *testing.T, tables []handTable) *olap.Engine {
		return handEngine(t, storage.NewMemDB(), tables)
	},
	"disk": func(t *testing.T, tables []handTable) *olap.Engine {
		return handEngine(t, openDisk(t), tables)
	},
	"disk+tail": func(t *testing.T, tables []handTable) *olap.Engine {
		return handEngineWithTail(t, openDisk(t), tables, 0.3)
	},
}

func openDisk(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQuickProbeMatchesStarFlowOnHandBuiltStars(t *testing.T) {
	for backend, open := range handBackends {
		for shape := range keyShapes {
			t.Run(backend+"/"+shape, func(t *testing.T) {
				t.Parallel()
				var answered, failed int
				r := rand.New(rand.NewSource(int64(len(backend) + len(shape))))
				// 2000 facts span several probe chunks, and fan out to
				// some fifty thousand joined rows.
				e := open(t, handStar(r, 2000, shape))
				for i := 0; i < 24; i++ {
					if assertSameAnswer(t, e, handQuery(r)) {
						failed++
					} else {
						answered++
					}
				}
				t.Logf("%d answers, %d errors", answered, failed)
				if answered < 12 || failed < 2 {
					t.Fatalf("generator drifted: %d answers, %d errors", answered, failed)
				}
			})
		}
	}
}

// TestQuickMatAggMatchesOracleOnHandBuiltStars replays the hand-built
// stars through the materialized-aggregate store: NULL, dangling and
// duplicated keys make a plan that joins one dimension more or less
// aggregate other rows, and the ±0 measures and keys make a merge order
// visible, so an entry picked on column coverage alone, or a MIN/MAX
// fold that keeps the first of two tied values, diverges from the
// oracle here. Every star trains the store on 40 draws, a sixth of them
// diced (a diced query's pattern holds its carat aggregates), refreshes,
// and replays them, each of them once more with a group column dropped —
// coarser than its entry, and on another join set when the column was
// its dimension's only one; a dice that thresholds the dropped column
// drops that threshold — and 40 fresh undiced draws; rows and errors must be the
// oracle's, a tenth of the replay at least must have been answered from
// an entry, and some diced answers among them.
func TestQuickMatAggMatchesOracleOnHandBuiltStars(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-check in -short mode: the oracle replay is the cost")
	}
	var pairs, served, dicedServed atomic.Int64
	t.Run("stars", func(t *testing.T) {
		for backend, open := range handBackends {
			for shape := range keyShapes {
				for seed := int64(1); seed <= 3; seed++ {
					t.Run(fmt.Sprintf("%s/%s/%d", backend, shape, seed), func(t *testing.T) {
						t.Parallel()
						r := rand.New(rand.NewSource(seed*1000 + int64(len(backend)+len(shape))))
						m := olap.NewMatAgg(8)
						e := open(t, handStar(r, 300, shape)).WithMatAgg(m)
						draw := func(n, diceOneIn int) []olap.CubeQuery {
							qs := make([]olap.CubeQuery, n)
							for i := range qs {
								if qs[i] = handQuery(r); diceOneIn == 0 || r.Intn(diceOneIn) != 0 {
									qs[i].Dice = nil
								}
							}
							return qs
						}
						queries := draw(40, 2)
						for _, q := range queries {
							_, _ = e.Query(q) // failing queries are replayed too; the log keeps the rest
						}
						if _, err := m.Refresh(e); err != nil {
							t.Fatalf("refresh: %v", err)
						}
						for _, q := range queries[:40] {
							if len(q.GroupBy) > 1 {
								dropped := q.GroupBy[0]
								q.GroupBy = q.GroupBy[1:]
								if q.Dice != nil && q.Dice.Thresholds[dropped] != 0 {
									d := *q.Dice
									d.Thresholds = maps.Clone(d.Thresholds)
									delete(d.Thresholds, dropped)
									if q.Dice = &d; len(d.Thresholds) == 0 {
										q.Dice = nil
									}
								}
								queries = append(queries, q)
							}
						}
						trained := m.Stats()
						for _, q := range append(queries, draw(40, 0)...) {
							pairs.Add(1)
							before := m.Stats()
							fast, errF := e.Query(q)
							oracle, errO := e.QueryStarFlow(q)
							if errF != nil || errO != nil {
								if errF == nil || errO == nil || !sameQueryError(errF, errO) {
									t.Fatalf("fast err=%v\noracle err=%v\n(%s)", errF, errO, queryString(q))
								}
								continue
							}
							assertIdentical(t, queryString(q), fast, oracle)
							if st := m.Stats(); q.Dice != nil && st.Hits+st.Rewrites > before.Hits+before.Rewrites {
								dicedServed.Add(1)
							}
						}
						st := m.Stats()
						served.Add(st.Hits + st.Rewrites - trained.Hits - trained.Rewrites)
					})
				}
			}
		}
	})
	t.Logf("%d (star, query) pairs, %d answered from aggregates, %d of them diced", pairs.Load(), served.Load(), dicedServed.Load())
	if !t.Failed() && (pairs.Load() < 2000 || 10*served.Load() < pairs.Load() || dicedServed.Load() == 0) {
		t.Fatalf("generator drifted: %d (star, query) pairs (want 2000), %d of them answered from a materialized aggregate (want a tenth), %d diced answers from one (want some)", pairs.Load(), served.Load(), dicedServed.Load())
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
	for i := range part.Groups.N {
		got = append(got, part.Groups.Keys[0].Value(i).AsString()+part.Groups.Keys[1].Value(i).AsString())
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
	tables := handStar(r, 2500, "dense")
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
	t.Run("group keys from the fact, numeric, and NULL", func(t *testing.T) {
		q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"tag", "qty", "a_name"}, Measures: count}
		assertSameAnswer(t, e, q)
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var nullTag, nullName bool
		for _, row := range res.Rows {
			nullTag = nullTag || row[0].IsNull()
			nullName = nullName || row[2].IsNull()
			if row[1].Kind() != expr.KindInt {
				t.Fatalf("group value of an int column came back %s", encodeValue(row[1]))
			}
		}
		if !nullTag || !nullName {
			t.Fatalf("no NULL group key in the answer (fact column: %v, dimension column: %v)", nullTag, nullName)
		}
	})
	t.Run("extremes over strings and floats, int sums stay int", func(t *testing.T) {
		q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"b_kind"}, Measures: []olap.MeasureSpec{
			{Out: "lo", Func: "MIN", Col: "a_name"}, {Out: "hi", Func: "MAX", Col: "a_name"},
			{Out: "low", Func: "MIN", Col: "b_w"}, {Out: "high", Func: "MAX", Col: "b_w"},
			{Out: "q", Func: "SUM", Col: "qty"}, {Out: "s", Func: "SUM", Col: "amt"}}}
		assertSameAnswer(t, e, q)
		res, err := e.Query(q)
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("rows=%v err=%v", res, err)
		}
		for _, row := range res.Rows {
			if row[5].Kind() != expr.KindInt || row[6].Kind() != expr.KindFloat || row[1].Kind() != expr.KindString {
				t.Fatalf("measure kinds %s, %s, %s", encodeValue(row[1]), encodeValue(row[5]), encodeValue(row[6]))
			}
		}
	})
	t.Run("an empty dimension joins nothing", func(t *testing.T) {
		q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"e_label", "tag"}, Measures: count}
		assertSameAnswer(t, e, q)
		if res, err := e.Query(q); err != nil || len(res.Rows) != 0 {
			t.Fatalf("rows=%v err=%v", res, err)
		}
	})
	t.Run("an ill-typed filter fails before any row", func(t *testing.T) {
		// Joining the empty dimension leaves the evaluator no row to fail
		// on: the filter must be refused when the query is planned, as
		// the oracle refuses it when it validates its flow — on the plain
		// fast path, the partial route and the dice alike.
		q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"e_label", "tag"}, Measures: count, Filter: "tag > 5"}
		for _, dice := range []*olap.DiceSpec{nil, {Func: "COUNT", Thresholds: map[string]float64{"tag": 1}}} {
			q.Dice = dice
			if !assertSameAnswer(t, e, q) {
				t.Fatalf("tag > 5 over an empty join was answered (dice %v)", dice != nil)
			}
		}
		if _, err := e.Query(q); err == nil || !strings.Contains(err.Error(), "olap: filter: expr:") {
			t.Fatalf("err = %v, want the planner's type error", err)
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
				if k := row[tag].Kind(); k != expr.KindString && k != expr.KindNull {
					t.Fatalf("stored tag became %s", encodeValue(row[tag]))
				}
			}
		}
	})
}
