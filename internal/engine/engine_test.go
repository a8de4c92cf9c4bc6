package engine

import (
	"fmt"
	"strings"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// miniDB populates a three-table source: lineitem / supplier / nation.
func miniDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewMemDB()
	sup, err := db.CreateTable("supplier", []storage.Column{
		{Name: "s_suppkey", Type: "int"},
		{Name: "s_name", Type: "string"},
		{Name: "s_nationkey", Type: "int"},
	})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := db.CreateTable("nation", []storage.Column{
		{Name: "n_nationkey", Type: "int"},
		{Name: "n_name", Type: "string"},
	})
	if err != nil {
		t.Fatal(err)
	}
	li, err := db.CreateTable("lineitem", []storage.Column{
		{Name: "l_suppkey", Type: "int"},
		{Name: "l_extendedprice", Type: "float"},
		{Name: "l_discount", Type: "float"},
	})
	if err != nil {
		t.Fatal(err)
	}
	nat.InsertAll([]storage.Row{
		{expr.Int(1), expr.Str("Spain")},
		{expr.Int(2), expr.Str("France")},
	})
	sup.InsertAll([]storage.Row{
		{expr.Int(10), expr.Str("Acme"), expr.Int(1)},    // Spain
		{expr.Int(20), expr.Str("Globex"), expr.Int(1)},  // Spain
		{expr.Int(30), expr.Str("Initech"), expr.Int(2)}, // France
	})
	li.InsertAll([]storage.Row{
		{expr.Int(10), expr.Float(100), expr.Float(0.1)}, // Acme: 90
		{expr.Int(10), expr.Float(50), expr.Float(0)},    // Acme: 50
		{expr.Int(20), expr.Float(200), expr.Float(0.5)}, // Globex: 100
		{expr.Int(30), expr.Float(999), expr.Float(0)},   // Initech (France, filtered)
	})
	return db
}

// revenueFlow is the Figure 3 revenue ETL: join lineitem⋈supplier⋈nation,
// slice Spain, derive revenue, sum per supplier, load.
func revenueFlow(t *testing.T) *xlm.Design {
	t.Helper()
	d := xlm.NewDesign("etl_revenue")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.AddNode(&xlm.Node{Name: "DS_lineitem", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "l_suppkey", Type: "int"}, {Name: "l_extendedprice", Type: "float"}, {Name: "l_discount", Type: "float"}},
		Params: map[string]string{"store": "src", "table": "lineitem"}}))
	must(d.AddNode(&xlm.Node{Name: "DS_supplier", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "s_suppkey", Type: "int"}, {Name: "s_name", Type: "string"}, {Name: "s_nationkey", Type: "int"}},
		Params: map[string]string{"store": "src", "table": "supplier"}}))
	must(d.AddNode(&xlm.Node{Name: "DS_nation", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "n_nationkey", Type: "int"}, {Name: "n_name", Type: "string"}},
		Params: map[string]string{"store": "src", "table": "nation"}}))
	must(d.AddNode(&xlm.Node{Name: "J_ls", Type: xlm.OpJoin, Params: map[string]string{"on": "l_suppkey=s_suppkey"}}))
	must(d.AddNode(&xlm.Node{Name: "J_lsn", Type: xlm.OpJoin, Params: map[string]string{"on": "s_nationkey=n_nationkey"}}))
	must(d.AddNode(&xlm.Node{Name: "SEL_spain", Type: xlm.OpSelection, Params: map[string]string{"predicate": "n_name = 'Spain'"}}))
	must(d.AddNode(&xlm.Node{Name: "F_rev", Type: xlm.OpFunction, Params: map[string]string{"name": "revenue", "expr": "l_extendedprice * (1 - l_discount)"}}))
	must(d.AddNode(&xlm.Node{Name: "AGG", Type: xlm.OpAggregation, Params: map[string]string{"group": "s_name", "aggregates": "revenue_sum:SUM:revenue"}}))
	must(d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "fact_revenue"}}))
	must(d.AddEdge("DS_lineitem", "J_ls"))
	must(d.AddEdge("DS_supplier", "J_ls"))
	must(d.AddEdge("J_ls", "J_lsn"))
	must(d.AddEdge("DS_nation", "J_lsn"))
	must(d.AddEdge("J_lsn", "SEL_spain"))
	must(d.AddEdge("SEL_spain", "F_rev"))
	must(d.AddEdge("F_rev", "AGG"))
	must(d.AddEdge("AGG", "LOAD"))
	return d
}

func TestRunRevenueFlow(t *testing.T) {
	db := miniDB(t)
	res, err := Run(revenueFlow(t), db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded["fact_revenue"] != 2 {
		t.Errorf("loaded = %v", res.Loaded)
	}
	fact, ok := db.Table("fact_revenue")
	if !ok {
		t.Fatal("fact table not created")
	}
	byName := map[string]float64{}
	for _, r := range fact.Rows() {
		f, _ := r[1].AsFloat()
		byName[r[0].AsString()] = f
	}
	if byName["Acme"] != 140 || byName["Globex"] != 100 {
		t.Errorf("revenue = %v", byName)
	}
	if res.TotalLoaded() != 2 {
		t.Errorf("TotalLoaded = %d", res.TotalLoaded())
	}
	if res.RowsProcessed() == 0 || res.Elapsed <= 0 {
		t.Error("instrumentation missing")
	}
	if len(res.Stats) != 9 {
		t.Errorf("stats = %d entries", len(res.Stats))
	}
	// Selection drops the France row: 4 join rows → 3.
	for _, s := range res.Stats {
		if s.Node == "SEL_spain" && (s.RowsIn != 4 || s.RowsOut != 3) {
			t.Errorf("selection stats = %+v", s)
		}
	}
}

func TestProjectionUnionSortSK(t *testing.T) {
	db := storage.NewMemDB()
	a, _ := db.CreateTable("a", []storage.Column{{Name: "k", Type: "int"}, {Name: "v", Type: "string"}})
	b, _ := db.CreateTable("b", []storage.Column{{Name: "k", Type: "int"}, {Name: "v", Type: "string"}})
	a.InsertAll([]storage.Row{{expr.Int(2), expr.Str("x")}, {expr.Int(1), expr.Str("y")}})
	b.InsertAll([]storage.Row{{expr.Int(3), expr.Str("x")}})

	d := xlm.NewDesign("pus")
	d.AddNode(&xlm.Node{Name: "DS_a", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "k", Type: "int"}, {Name: "v", Type: "string"}},
		Params: map[string]string{"table": "a"}})
	d.AddNode(&xlm.Node{Name: "DS_b", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "k", Type: "int"}, {Name: "v", Type: "string"}},
		Params: map[string]string{"table": "b"}})
	d.AddNode(&xlm.Node{Name: "U", Type: xlm.OpUnion})
	d.AddNode(&xlm.Node{Name: "SORT", Type: xlm.OpSort, Params: map[string]string{"by": "k"}})
	d.AddNode(&xlm.Node{Name: "SK", Type: xlm.OpSurrogateKey, Params: map[string]string{"key": "v_sk", "on": "v"}})
	d.AddNode(&xlm.Node{Name: "PROJ", Type: xlm.OpProjection, Params: map[string]string{"columns": "key=k, v_sk"}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("DS_a", "U")
	d.AddEdge("DS_b", "U")
	d.AddEdge("U", "SORT")
	d.AddEdge("SORT", "SK")
	d.AddEdge("SK", "PROJ")
	d.AddEdge("PROJ", "LOAD")

	res, err := Run(d, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded["out"] != 3 {
		t.Fatalf("loaded = %v", res.Loaded)
	}
	out, _ := db.Table("out")
	rows := out.Rows()
	// Sorted by k: 1(y), 2(x), 3(x). Surrogate keys first-seen: y→1, x→2.
	wantK := []int64{1, 2, 3}
	wantSK := []int64{1, 2, 2}
	for i, r := range rows {
		if r[0].AsInt() != wantK[i] || r[1].AsInt() != wantSK[i] {
			t.Errorf("row %d = %v, want k=%d sk=%d", i, r, wantK[i], wantSK[i])
		}
	}
}

func TestAggregationSemantics(t *testing.T) {
	db := storage.NewMemDB()
	tb, _ := db.CreateTable("t", []storage.Column{{Name: "g", Type: "string"}, {Name: "x", Type: "int"}})
	tb.InsertAll([]storage.Row{
		{expr.Str("a"), expr.Int(1)},
		{expr.Str("a"), expr.Int(3)},
		{expr.Str("b"), expr.Null()},
		{expr.Str("b"), expr.Int(10)},
	})
	d := xlm.NewDesign("agg")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "g", Type: "string"}, {Name: "x", Type: "int"}},
		Params: map[string]string{"table": "t"}})
	d.AddNode(&xlm.Node{Name: "AGG", Type: xlm.OpAggregation, Params: map[string]string{
		"group":      "g",
		"aggregates": "s:SUM:x; a:AVG:x; mn:MIN:x; mx:MAX:x; c:COUNT:x; n:COUNT:",
	}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("DS", "AGG")
	d.AddEdge("AGG", "LOAD")
	if _, err := Run(d, db); err != nil {
		t.Fatal(err)
	}
	out, _ := db.Table("out")
	got := map[string]storage.Row{}
	for _, r := range out.Rows() {
		got[r[0].AsString()] = r
	}
	a := got["a"]
	if a[1].AsInt() != 4 { // SUM stays int for int input
		t.Errorf("SUM(a) = %v", a[1])
	}
	if f, _ := a[2].AsFloat(); f != 2 {
		t.Errorf("AVG(a) = %v", a[2])
	}
	if a[3].AsInt() != 1 || a[4].AsInt() != 3 {
		t.Errorf("MIN/MAX(a) = %v %v", a[3], a[4])
	}
	if a[5].AsInt() != 2 || a[6].AsInt() != 2 {
		t.Errorf("COUNT(a) = %v %v", a[5], a[6])
	}
	b := got["b"]
	// NULL skipped: SUM=10, COUNT(x)=1, COUNT(*)=2.
	if b[1].AsInt() != 10 || b[5].AsInt() != 1 || b[6].AsInt() != 2 {
		t.Errorf("b aggregates = %v", b)
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	db := storage.NewMemDB()
	db.CreateTable("t", []storage.Column{{Name: "x", Type: "int"}})
	d := xlm.NewDesign("agg0")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "x", Type: "int"}},
		Params: map[string]string{"table": "t"}})
	d.AddNode(&xlm.Node{Name: "AGG", Type: xlm.OpAggregation, Params: map[string]string{
		"aggregates": "c:COUNT:; s:SUM:x",
	}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("DS", "AGG")
	d.AddEdge("AGG", "LOAD")
	if _, err := Run(d, db); err != nil {
		t.Fatal(err)
	}
	out, _ := db.Table("out")
	rows := out.Rows()
	if len(rows) != 1 || rows[0][0].AsInt() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty global aggregate = %v", rows)
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	db := storage.NewMemDB()
	l, _ := db.CreateTable("l", []storage.Column{{Name: "k", Type: "int"}})
	r, _ := db.CreateTable("r", []storage.Column{{Name: "rk", Type: "int"}, {Name: "v", Type: "string"}})
	l.InsertAll([]storage.Row{{expr.Null()}, {expr.Int(1)}})
	r.InsertAll([]storage.Row{{expr.Null(), expr.Str("null")}, {expr.Int(1), expr.Str("one")}})
	d := xlm.NewDesign("nulljoin")
	d.AddNode(&xlm.Node{Name: "L", Type: xlm.OpDatastore, Fields: []xlm.Field{{Name: "k", Type: "int"}}, Params: map[string]string{"table": "l"}})
	d.AddNode(&xlm.Node{Name: "R", Type: xlm.OpDatastore, Fields: []xlm.Field{{Name: "rk", Type: "int"}, {Name: "v", Type: "string"}}, Params: map[string]string{"table": "r"}})
	d.AddNode(&xlm.Node{Name: "J", Type: xlm.OpJoin, Params: map[string]string{"on": "k=rk"}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("L", "J")
	d.AddEdge("R", "J")
	d.AddEdge("J", "LOAD")
	res, err := Run(d, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded["out"] != 1 {
		t.Errorf("NULL keys matched: loaded %d rows", res.Loaded["out"])
	}
}

// TestLoaderAppendMode: a loader replaces its table. Running a design
// twice leaves its table holding one run's rows, and a loader asking
// for append mode — or any mode but replace — is refused by either
// executor before anything is loaded.
func TestLoaderAppendMode(t *testing.T) {
	db := storage.NewMemDB()
	tb, _ := db.CreateTable("t", []storage.Column{{Name: "x", Type: "int"}})
	tb.Insert(storage.Row{expr.Int(1)})
	mk := func(mode string) *xlm.Design {
		d := xlm.NewDesign("load_" + mode)
		d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore, Fields: []xlm.Field{{Name: "x", Type: "int"}}, Params: map[string]string{"table": "t"}})
		d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "sink", "mode": mode}})
		d.AddEdge("DS", "LOAD")
		return d
	}
	for _, mode := range []string{"", "replace"} {
		if _, err := Run(mk(mode), db); err != nil {
			t.Fatal(err)
		}
		if sink, _ := db.Table("sink"); sink.NumRows() != 1 {
			t.Errorf("mode %q: sink holds %d rows, want 1", mode, sink.NumRows())
		}
	}
	v := db.Version()
	for _, mode := range []string{"append", "bogus"} {
		for name, run := range map[string]func(*xlm.Design, *storage.DB) (*Result, error){"pipelined": Run, "materializing": RunMaterializing} {
			if _, err := run(mk(mode), db); err == nil || !strings.Contains(err.Error(), `has mode "`+mode+`"`) {
				t.Errorf("%s: loader mode %q: %v, want a refusal", name, mode, err)
			}
		}
	}
	if sink, _ := db.Table("sink"); sink.NumRows() != 1 || db.Version() != v {
		t.Errorf("refused runs changed the database: %d rows, version %d → %d", sink.NumRows(), v, db.Version())
	}
}

// TestFailedRunLeavesTargetsUntouched: a run that errors before any
// data reaches a replace-mode loader must not have replaced the
// pre-existing target table with an empty one.
func TestFailedRunLeavesTargetsUntouched(t *testing.T) {
	mkDB := func() *storage.DB {
		db := storage.NewMemDB()
		src, _ := db.CreateTable("t", []storage.Column{{Name: "k", Type: "int"}})
		src.Insert(storage.Row{expr.Int(1)})
		out, _ := db.CreateTable("out", []storage.Column{{Name: "old", Type: "int"}})
		out.Insert(storage.Row{expr.Int(42)})
		return db
	}
	d := xlm.NewDesign("boom")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "k", Type: "int"}},
		Params: map[string]string{"table": "t"}})
	// Every row divides by zero: the flow fails before the loader
	// sees any batch.
	d.AddNode(&xlm.Node{Name: "FN", Type: xlm.OpFunction,
		Params: map[string]string{"name": "f", "expr": "k / 0"}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("DS", "FN")
	d.AddEdge("FN", "LOAD")
	for _, mode := range []string{"materializing", "pipelined"} {
		t.Run(mode, func(t *testing.T) {
			db := mkDB()
			var err error
			if mode == "materializing" {
				_, err = RunMaterializing(d, db)
			} else {
				_, err = Run(d, db)
			}
			if err == nil {
				t.Fatal("division by zero accepted")
			}
			out, _ := db.Table("out")
			rows := out.Rows()
			if len(rows) != 1 || rows[0][0].AsInt() != 42 {
				t.Errorf("failed run touched target table: %v", rows)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	db := miniDB(t)
	// Missing source table.
	d := revenueFlow(t)
	n, _ := d.Node("DS_nation")
	n.Params["table"] = "ghost"
	if _, err := Run(d, db); err == nil {
		t.Error("missing source table accepted")
	}
	// Missing source column.
	d = revenueFlow(t)
	n, _ = d.Node("DS_nation")
	n.Fields = append(n.Fields, xlm.Field{Name: "ghost", Type: "int"})
	if _, err := Run(d, db); err == nil {
		t.Error("missing source column accepted")
	}
	// Invalid design (validation runs first).
	d = revenueFlow(t)
	sel, _ := d.Node("SEL_spain")
	sel.Params["predicate"] = "ghost = 1"
	if _, err := Run(d, db); err == nil {
		t.Error("invalid design executed")
	}
}

// TestDeadFunctionStillFails: a Function whose derived column nothing
// downstream reads is still evaluated, so a failing expression fails
// the run — with the same node-named error — in the full-width
// reference and in the pruning pipelined executor alike.
func TestDeadFunctionStillFails(t *testing.T) {
	d := xlm.NewDesign("dead_function")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "l_suppkey", Type: "int"}, {Name: "l_extendedprice", Type: "float"}, {Name: "l_discount", Type: "float"}},
		Params: map[string]string{"table": "lineitem"}})
	d.AddNode(&xlm.Node{Name: "F_dead", Type: xlm.OpFunction, Params: map[string]string{"name": "dead", "expr": "l_discount / 0"}})
	d.AddNode(&xlm.Node{Name: "AGG", Type: xlm.OpAggregation, Params: map[string]string{"group": "l_suppkey", "aggregates": "s:SUM:l_extendedprice"}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("DS", "F_dead")
	d.AddEdge("F_dead", "AGG")
	d.AddEdge("AGG", "LOAD")
	_, want := RunMaterializing(d, miniDB(t))
	if want == nil || !strings.Contains(want.Error(), `node "F_dead"`) {
		t.Fatalf("reference: error = %v, want a failure naming F_dead", want)
	}
	for _, o := range []Options{{Parallelism: 1, BatchSize: 7}, {Parallelism: 8, BatchSize: 64}} {
		db := miniDB(t)
		_, err := RunWithOptions(d, db, o)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%+v: error = %v, want %v", o, err, want)
		}
		if _, ok := db.Table("out"); ok {
			t.Errorf("%+v: failed run created its target", o)
		}
	}
}

func TestSourceColumnOrderIndependence(t *testing.T) {
	// The xLM datastore schema may list columns in a different order
	// than the physical table; extraction must map by name.
	db := storage.NewMemDB()
	tb, _ := db.CreateTable("t", []storage.Column{
		{Name: "a", Type: "int"}, {Name: "b", Type: "string"},
	})
	tb.Insert(storage.Row{expr.Int(7), expr.Str("x")})
	d := xlm.NewDesign("reorder")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "b", Type: "string"}, {Name: "a", Type: "int"}},
		Params: map[string]string{"table": "t"}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("DS", "LOAD")
	if _, err := Run(d, db); err != nil {
		t.Fatal(err)
	}
	out, _ := db.Table("out")
	r := out.Rows()[0]
	if r[0].AsString() != "x" || r[1].AsInt() != 7 {
		t.Errorf("reordered row = %v", r)
	}
}

func TestSharedPrefixForkExecutesOnce(t *testing.T) {
	// Two loaders fed from one selection: the shared prefix must be
	// executed once — the core of the integration benefit.
	db := miniDB(t)
	d := xlm.NewDesign("fork")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "l_suppkey", Type: "int"}, {Name: "l_extendedprice", Type: "float"}},
		Params: map[string]string{"table": "lineitem"}})
	d.AddNode(&xlm.Node{Name: "SEL", Type: xlm.OpSelection, Params: map[string]string{"predicate": "l_extendedprice > 60"}})
	d.AddNode(&xlm.Node{Name: "AGG1", Type: xlm.OpAggregation, Params: map[string]string{"group": "l_suppkey", "aggregates": "s:SUM:l_extendedprice"}})
	d.AddNode(&xlm.Node{Name: "AGG2", Type: xlm.OpAggregation, Params: map[string]string{"aggregates": "c:COUNT:"}})
	d.AddNode(&xlm.Node{Name: "L1", Type: xlm.OpLoader, Params: map[string]string{"table": "out1"}})
	d.AddNode(&xlm.Node{Name: "L2", Type: xlm.OpLoader, Params: map[string]string{"table": "out2"}})
	d.AddEdge("DS", "SEL")
	d.AddEdge("SEL", "AGG1")
	d.AddEdge("SEL", "AGG2")
	d.AddEdge("AGG1", "L1")
	d.AddEdge("AGG2", "L2")
	res, err := Run(d, db)
	if err != nil {
		t.Fatal(err)
	}
	selRuns := 0
	for _, s := range res.Stats {
		if s.Node == "SEL" {
			selRuns++
		}
	}
	if selRuns != 1 {
		t.Errorf("selection executed %d times", selRuns)
	}
	if res.Loaded["out1"] == 0 || res.Loaded["out2"] != 1 {
		t.Errorf("loaded = %v", res.Loaded)
	}
}

func BenchmarkJoinAggregate(b *testing.B) {
	db := storage.NewMemDB()
	li, _ := db.CreateTable("lineitem", []storage.Column{
		{Name: "l_suppkey", Type: "int"},
		{Name: "l_extendedprice", Type: "float"},
		{Name: "l_discount", Type: "float"},
	})
	sup, _ := db.CreateTable("supplier", []storage.Column{
		{Name: "s_suppkey", Type: "int"},
		{Name: "s_name", Type: "string"},
		{Name: "s_nationkey", Type: "int"},
	})
	nat, _ := db.CreateTable("nation", []storage.Column{
		{Name: "n_nationkey", Type: "int"},
		{Name: "n_name", Type: "string"},
	})
	nat.InsertAll([]storage.Row{{expr.Int(1), expr.Str("Spain")}, {expr.Int(2), expr.Str("France")}})
	for s := 0; s < 50; s++ {
		sup.Insert(storage.Row{expr.Int(int64(s)), expr.Str(fmt.Sprintf("sup%d", s)), expr.Int(int64(s%2 + 1))})
	}
	for i := 0; i < 5000; i++ {
		li.Insert(storage.Row{expr.Int(int64(i % 50)), expr.Float(float64(i)), expr.Float(0.1)})
	}
	var tt testing.T
	d := revenueFlow(&tt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(d, db); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunCommitsAtomically: a run with several replace-mode loaders
// bumps the DB version exactly once (the Publish commit point), so
// a concurrent snapshot can never see a mix of the run's outputs, and
// every run — even one that reloads identical data — is observable to
// version-keyed caches.
func TestRunCommitsAtomically(t *testing.T) {
	db := storage.NewMemDB()
	src, err := db.CreateTable("src", []storage.Column{{Name: "k", Type: "int"}, {Name: "v", Type: "int"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := src.Insert(storage.Row{expr.Int(int64(i)), expr.Int(int64(i * 2))}); err != nil {
			t.Fatal(err)
		}
	}
	d := xlm.NewDesign("atomic")
	ds := &xlm.Node{
		Name: "SRC", Type: xlm.OpDatastore, Optype: "TableInput",
		Fields: []xlm.Field{{Name: "k", Type: "int"}, {Name: "v", Type: "int"}},
		Params: map[string]string{"store": "s", "table": "src"},
	}
	if err := d.AddNode(ds); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"out_a", "out_b"} {
		ld := &xlm.Node{
			Name: "LOAD_" + target, Type: xlm.OpLoader, Optype: "TableOutput",
			Params: map[string]string{"table": target, "mode": "replace"},
		}
		if err := d.AddNode(ld); err != nil {
			t.Fatal(err)
		}
		if err := d.AddEdge("SRC", ld.Name); err != nil {
			t.Fatal(err)
		}
	}
	for name, run := range map[string]func() (*Result, error){
		"pipelined":     func() (*Result, error) { return Run(d.Clone(), db) },
		"materializing": func() (*Result, error) { return RunMaterializing(d.Clone(), db) },
	} {
		before := db.Version()
		if _, err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := db.Version() - before; got != 1 {
			t.Errorf("%s: run bumped version by %d, want exactly 1", name, got)
		}
		for _, target := range []string{"out_a", "out_b"} {
			tb, ok := db.Table(target)
			if !ok || tb.NumRows() != 10 {
				t.Fatalf("%s: table %s not loaded", name, target)
			}
		}
	}
}
