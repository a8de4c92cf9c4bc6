package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"quarry/internal/etlintegrator"
	"quarry/internal/expr"
	"quarry/internal/interpreter"
	"quarry/internal/quality"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
)

// outcome captures everything the equivalence oracle compares: loaded
// row counts, per-operation row counts, and the full rendered content
// of every loaded table (byte-identical, order included).
type outcome struct {
	loaded map[string]int64
	stats  map[string][2]int64
	tables map[string]string
}

func capture(res *Result, db *storage.DB) outcome {
	o := outcome{
		loaded: res.Loaded,
		stats:  map[string][2]int64{},
		tables: map[string]string{},
	}
	for _, s := range res.Stats {
		o.stats[s.Node] = [2]int64{s.RowsIn, s.RowsOut}
	}
	for table := range res.Loaded {
		t, ok := db.Table(table)
		if !ok {
			continue
		}
		var b strings.Builder
		for _, c := range t.Columns {
			fmt.Fprintf(&b, "%s:%s|", c.Name, c.Type)
		}
		b.WriteByte('\n')
		for _, r := range t.Rows() {
			for _, v := range r {
				b.WriteString(v.String())
				b.WriteByte('|')
			}
			b.WriteByte('\n')
		}
		o.tables[table] = b.String()
	}
	return o
}

// assertEngineEquivalence runs the design through the materialising
// reference, the pipelined executor at Parallelism 1, at Parallelism 4
// with tiny batches (many batches in flight on every edge at once),
// and at high parallelism with a stress batch size, each against an
// independently rebuilt database, and requires byte-identical results.
func assertEngineEquivalence(t *testing.T, mkDB func() *storage.DB, d *xlm.Design) {
	t.Helper()
	modes := []struct {
		name string
		run  func(*xlm.Design, *storage.DB) (*Result, error)
	}{
		{"materializing", RunMaterializing},
		{"parallel=1", func(d *xlm.Design, db *storage.DB) (*Result, error) {
			return RunWithOptions(d, db, Options{Parallelism: 1, BatchSize: 7})
		}},
		{"parallel=4,batch=7", func(d *xlm.Design, db *storage.DB) (*Result, error) {
			return RunWithOptions(d, db, Options{Parallelism: 4, BatchSize: 7})
		}},
		{"parallel=N", func(d *xlm.Design, db *storage.DB) (*Result, error) {
			return RunWithOptions(d, db, Options{Parallelism: 8, BatchSize: 64})
		}},
	}
	var ref outcome
	for i, m := range modes {
		db := mkDB()
		res, err := m.run(d, db)
		if err != nil {
			t.Fatalf("%s: design %q: %v", m.name, d.Name, err)
		}
		got := capture(res, db)
		if i == 0 {
			ref = got
			continue
		}
		if len(got.loaded) != len(ref.loaded) {
			t.Fatalf("%s: loaded tables %v, want %v", m.name, got.loaded, ref.loaded)
		}
		for table, n := range ref.loaded {
			if got.loaded[table] != n {
				t.Errorf("%s: Loaded[%q] = %d, want %d", m.name, table, got.loaded[table], n)
			}
			if got.tables[table] != ref.tables[table] {
				t.Errorf("%s: table %q content differs from reference\n got: %s\nwant: %s",
					m.name, table, got.tables[table], ref.tables[table])
			}
		}
		if len(got.stats) != len(ref.stats) {
			t.Fatalf("%s: %d op stats, want %d", m.name, len(got.stats), len(ref.stats))
		}
		for node, want := range ref.stats {
			if got.stats[node] != want {
				t.Errorf("%s: node %q rows in/out = %v, want %v", m.name, node, got.stats[node], want)
			}
		}
	}
}

func TestEquivalenceRevenueFlow(t *testing.T) {
	assertEngineEquivalence(t, func() *storage.DB {
		return miniDB(t)
	}, revenueFlow(t))
}

func TestEquivalenceSharedPrefixFork(t *testing.T) {
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
	assertEngineEquivalence(t, func() *storage.DB { return miniDB(t) }, d)
}

func TestEquivalenceUnionSortSurrogate(t *testing.T) {
	mkDB := func() *storage.DB {
		db := storage.NewMemDB()
		r := rand.New(rand.NewSource(7))
		randTable(r, db, "a", 300)
		randTable(r, db, "b", 150)
		return db
	}
	fields := []xlm.Field{{Name: "k", Type: "int"}, {Name: "g", Type: "string"}, {Name: "x", Type: "float"}}
	d := xlm.NewDesign("uss")
	d.AddNode(&xlm.Node{Name: "DS_a", Type: xlm.OpDatastore, Fields: fields, Params: map[string]string{"table": "a"}})
	d.AddNode(&xlm.Node{Name: "DS_b", Type: xlm.OpDatastore, Fields: fields, Params: map[string]string{"table": "b"}})
	d.AddNode(&xlm.Node{Name: "U", Type: xlm.OpUnion})
	d.AddNode(&xlm.Node{Name: "SORT", Type: xlm.OpSort, Params: map[string]string{"by": "k,g"}})
	d.AddNode(&xlm.Node{Name: "SK", Type: xlm.OpSurrogateKey, Params: map[string]string{"key": "g_sk", "on": "g"}})
	d.AddNode(&xlm.Node{Name: "PROJ", Type: xlm.OpProjection, Params: map[string]string{"columns": "key=k, g_sk, x"}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	d.AddEdge("DS_a", "U")
	d.AddEdge("DS_b", "U")
	d.AddEdge("U", "SORT")
	d.AddEdge("SORT", "SK")
	d.AddEdge("SK", "PROJ")
	d.AddEdge("PROJ", "LOAD")
	assertEngineEquivalence(t, mkDB, d)
}

// TestEquivalenceSharedTargetLoaders: two loaders writing the same
// table must not race — they are chained in topological order, so
// append interleaving and replace-mode outcomes match the
// materialising reference exactly.
func TestEquivalenceSharedTargetLoaders(t *testing.T) {
	for _, mode := range []string{"append", "replace"} {
		t.Run(mode, func(t *testing.T) {
			mkDB := func() *storage.DB {
				db := storage.NewMemDB()
				r := rand.New(rand.NewSource(11))
				randTable(r, db, "a", 400)
				randTable(r, db, "b", 250)
				return db
			}
			fields := []xlm.Field{{Name: "k", Type: "int"}, {Name: "g", Type: "string"}, {Name: "x", Type: "float"}}
			d := xlm.NewDesign("shared_target_" + mode)
			d.AddNode(&xlm.Node{Name: "DS_a", Type: xlm.OpDatastore, Fields: fields, Params: map[string]string{"table": "a"}})
			d.AddNode(&xlm.Node{Name: "DS_b", Type: xlm.OpDatastore, Fields: fields, Params: map[string]string{"table": "b"}})
			d.AddNode(&xlm.Node{Name: "L1", Type: xlm.OpLoader, Params: map[string]string{"table": "out", "mode": mode}})
			d.AddNode(&xlm.Node{Name: "L2", Type: xlm.OpLoader, Params: map[string]string{"table": "out", "mode": mode}})
			d.AddEdge("DS_a", "L1")
			d.AddEdge("DS_b", "L2")
			assertEngineEquivalence(t, mkDB, d)
		})
	}
}

// randomDesign grows a chain off a (k, g, x) datastore, forks it at a
// random point into two branches, and loads both — exercising every
// operator plus fan-out under the quick-check style the package's
// other property tests use. It tracks the schema as it goes, so the
// shapes the layout pass must get right all occur: a Join against a
// second datastore whose key nothing downstream reads, a Projection
// that drops and renames, a Union (where pruning must stop), Functions
// and SurrogateKeys whose derived column dies, and a fork whose two
// branches end in readers of disjoint column halves (the shared node
// must carry their union).
func randomDesign(r *rand.Rand) *xlm.Design {
	d := xlm.NewDesign(fmt.Sprintf("rand%d", r.Int63()))
	cols := []xlm.Field{{Name: "k", Type: "int"}, {Name: "g", Type: "string"}, {Name: "x", Type: "float"}}
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore, Fields: cols, Params: map[string]string{"table": "t"}})
	seq := 0
	fresh := func(prefix string) string {
		seq++
		return fmt.Sprintf("%s%d", prefix, seq)
	}
	add := func(prev string, typ xlm.OpType, prefix string, params map[string]string) string {
		name := fresh(prefix)
		d.AddNode(&xlm.Node{Name: name, Type: typ, Params: params})
		d.AddEdge(prev, name)
		return name
	}
	numeric := func(cols []xlm.Field) []xlm.Field {
		var out []xlm.Field
		for _, f := range cols {
			if f.Type != "string" {
				out = append(out, f)
			}
		}
		return out
	}
	pick := func(cols []xlm.Field) xlm.Field { return cols[r.Intn(len(cols))] }
	pickNames := func(cols []xlm.Field) string {
		names := pick(cols).Name
		if other := pick(cols).Name; other != names {
			names += "," + other
		}
		return names
	}
	allNames := func(cols []xlm.Field) string {
		names := make([]string, len(cols))
		for i, f := range cols {
			names[i] = f.Name
		}
		return strings.Join(names, ", ")
	}
	has := func(cols []xlm.Field, name string) bool {
		for _, f := range cols {
			if f.Name == name {
				return true
			}
		}
		return false
	}
	addOp := func(prev string, cols []xlm.Field) (string, []xlm.Field) {
		nums := numeric(cols)
		switch op := r.Intn(7); {
		case op == 0 && len(nums) > 0:
			return add(prev, xlm.OpSelection, "SEL", map[string]string{
				"predicate": fmt.Sprintf("%s > %d", pick(nums).Name, r.Intn(250))}), cols
		case op == 1 && len(nums) > 0:
			a, b := pick(nums), pick(nums)
			typ := "int"
			if a.Type == "float" || b.Type == "float" {
				typ = "float"
			}
			name := fresh("f")
			return add(prev, xlm.OpFunction, "FN", map[string]string{
					"name": name, "expr": fmt.Sprintf("%s * %d + %s", a.Name, 1+r.Intn(3), b.Name)}),
				append(cols[:len(cols):len(cols)], xlm.Field{Name: name, Type: typ})
		case op == 2:
			name := fresh("sk")
			return add(prev, xlm.OpSurrogateKey, "SK", map[string]string{"key": name, "on": pickNames(cols)}),
				append(cols[:len(cols):len(cols)], xlm.Field{Name: name, Type: "int"})
		case op == 3 && len(nums) > 0 && !has(cols, "uy"):
			// The right key uk is read by the join alone; ug by nothing
			// unless a later operator happens to pick it.
			right := []xlm.Field{{Name: "uk", Type: "int"}, {Name: "ug", Type: "string"}, {Name: "uy", Type: "float"}}
			ds := fresh("DSU")
			d.AddNode(&xlm.Node{Name: ds, Type: xlm.OpDatastore, Fields: right, Params: map[string]string{"table": "u"}})
			join := add(prev, xlm.OpJoin, "JOIN", map[string]string{"on": pick(nums).Name + "=uk"})
			d.AddEdge(ds, join)
			return join, append(cols[:len(cols):len(cols)], right...)
		case op == 4:
			// Keep a random non-empty subset in shuffled order, renaming
			// about half of what is kept.
			var specs []string
			var out []xlm.Field
			for _, i := range r.Perm(len(cols))[:1+r.Intn(len(cols))] {
				f := cols[i]
				if r.Intn(2) == 0 {
					renamed := fresh("p")
					specs = append(specs, renamed+"="+f.Name)
					f.Name = renamed
				} else {
					specs = append(specs, f.Name)
				}
				out = append(out, f)
			}
			return add(prev, xlm.OpProjection, "PROJ", map[string]string{"columns": strings.Join(specs, ", ")}), out
		case op == 5:
			// Two schema-preserving branches off prev, reunited: one
			// rebuilds its rows, the other passes prev's through, so
			// only an unpruned Union sees the same layout on both.
			a := add(prev, xlm.OpProjection, "PROJ", map[string]string{"columns": allNames(cols)})
			b := add(prev, xlm.OpSort, "SORT", map[string]string{"by": pickNames(cols)})
			if len(nums) > 0 {
				b = add(b, xlm.OpSelection, "SEL", map[string]string{
					"predicate": fmt.Sprintf("%s > %d", pick(nums).Name, r.Intn(250))})
			}
			u := add(a, xlm.OpUnion, "UNION", nil)
			d.AddEdge(b, u)
			return u, cols
		default:
			return add(prev, xlm.OpSort, "SORT", map[string]string{"by": pickNames(cols)}), cols
		}
	}
	prev := "DS"
	for i := r.Intn(4); i > 0; i-- {
		prev, cols = addOp(prev, cols)
	}
	fork, forkCols := prev, cols // both branches consume this node
	// Each branch's terminal reader sees only its own half of the fork's
	// columns (when there are enough to split).
	halves := [2][]xlm.Field{forkCols, forkCols}
	if len(forkCols) > 1 {
		perm := r.Perm(len(forkCols))
		halves = [2][]xlm.Field{nil, nil}
		for i, j := range perm {
			halves[i%2] = append(halves[i%2], forkCols[j])
		}
	}
	for b := 0; b < 2; b++ {
		prev, cols = fork, forkCols
		for i := r.Intn(3); i > 0; i-- {
			prev, cols = addOp(prev, cols)
		}
		// Columns of this branch's half that survived its own operators.
		var mine []xlm.Field
		for _, f := range halves[b] {
			if has(cols, f.Name) {
				mine = append(mine, f)
			}
		}
		switch {
		case len(mine) == 0:
		case r.Intn(2) == 0:
			aggs := "c:COUNT:; mn:MIN:" + pick(mine).Name
			if nums := numeric(mine); len(nums) > 0 {
				aggs += fmt.Sprintf("; s:SUM:%s; a:AVG:%s", pick(nums).Name, pick(nums).Name)
			}
			params := map[string]string{"aggregates": aggs}
			if r.Intn(4) != 0 {
				params["group"] = pick(mine).Name
			}
			prev = add(prev, xlm.OpAggregation, "AGG", params)
		default:
			prev = add(prev, xlm.OpProjection, "PROJ", map[string]string{"columns": allNames(mine)})
		}
		add(prev, xlm.OpLoader, "LOAD", map[string]string{"table": fmt.Sprintf("out%d", b)})
	}
	return d
}

func TestEquivalenceRandomDesigns(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := randomDesign(rand.New(rand.NewSource(seed)))
			mkDB := func() *storage.DB {
				db := storage.NewMemDB()
				r := rand.New(rand.NewSource(seed + 1000))
				randTable(r, db, "t", 200+r.Intn(400))
				// uk repeats, so the join fans out past its input batch.
				u, err := db.CreateTable("u", []storage.Column{
					{Name: "uk", Type: "int"}, {Name: "ug", Type: "string"}, {Name: "uy", Type: "float"}})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 60; i++ {
					u.Insert(storage.Row{expr.Int(int64(r.Intn(25))), expr.Str(fmt.Sprint("u", i%7)), expr.Float(float64(r.Intn(400)) / 8)})
				}
				return db
			}
			assertEngineEquivalence(t, mkDB, d)
		})
	}
}

// TestEquivalenceTPCHCanonical runs every canonical TPC-H requirement's
// partial flow plus the integrated unified flow — the designs the
// paper's demonstration executes — through all engine modes.
func TestEquivalenceTPCHCanonical(t *testing.T) {
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := interpreter.New(o, m, c)
	if err != nil {
		t.Fatal(err)
	}
	mkDB := func() *storage.DB {
		db := storage.NewMemDB()
		if _, err := tpch.Generate(db, 1, 42); err != nil {
			t.Fatal(err)
		}
		return db
	}
	etlInt := etlintegrator.New(quality.DefaultETLCost(c), true)
	var unified *xlm.Design
	for _, r := range tpch.CanonicalRequirements() {
		pd, err := in.Interpret(r)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("partial/"+r.ID, func(t *testing.T) {
			assertEngineEquivalence(t, mkDB, pd.ETL)
		})
		if unified, _, err = etlInt.Integrate(unified, pd.ETL); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("unified", func(t *testing.T) {
		assertEngineEquivalence(t, mkDB, unified)
	})
}
