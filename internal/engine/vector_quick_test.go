package engine

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// The property suite of the vector executor: random designs over dirty
// sources, run by the pipelined executor under several batch sizes and
// parallelisms and by the row reference, must load byte-identical
// tables (value kinds and float bits included), count the same rows per
// operation, and fail with the same error.

// Dirty source columns: t is the probe-side relation, u and w are
// build sides. Keys are NULL, dangling, duplicated; Int 3 meets Float
// 3.0 across t.k/u.uf and t.f/u.uk; NaN and ±0 sit in keys and
// measures. u's two bool and two string columns let a composite key
// pair columns that present one dictionary (every bool vector shares
// one) or name one column twice.
var (
	dirtyT = []xlm.Field{{Name: "k", Type: "int"}, {Name: "f", Type: "float"}, {Name: "g", Type: "string"},
		{Name: "b", Type: "bool"}, {Name: "x", Type: "int"}, {Name: "y", Type: "float"}}
	dirtyU = []xlm.Field{{Name: "uk", Type: "int"}, {Name: "uf", Type: "float"}, {Name: "ug", Type: "string"},
		{Name: "ub", Type: "bool"}, {Name: "uv", Type: "int"}, {Name: "ub2", Type: "bool"}, {Name: "ug2", Type: "string"}}
	dirtyW = []xlm.Field{{Name: "wk", Type: "int"}, {Name: "wg", Type: "string"}, {Name: "wv", Type: "float"}}
)

func dirtyValue(r *rand.Rand, col string) expr.Value {
	pick := func(vs ...expr.Value) expr.Value { return vs[r.Intn(len(vs))] }
	nan, negZero := expr.Float(math.NaN()), expr.Float(math.Copysign(0, -1))
	null := expr.Null()
	switch col {
	case "k":
		if r.Intn(8) == 0 {
			return null
		}
		return expr.Int(int64(r.Intn(8))) // u holds 0..4: 5..7 dangle
	case "f":
		return pick(expr.Float(3), expr.Float(2.5), negZero, expr.Float(0), nan, expr.Float(1), expr.Float(4), null)
	case "g", "ug", "ug2", "wg":
		return pick(expr.Str("a"), expr.Str("b"), expr.Str("c"), expr.Str(""), expr.Str("z"), null)
	case "b", "ub", "ub2":
		return pick(expr.Bool(true), expr.Bool(false), null)
	case "x", "uv":
		if r.Intn(7) == 0 {
			return null
		}
		return expr.Int(int64(r.Intn(13) - 3))
	case "y", "wv":
		return pick(expr.Float(1.5), negZero, expr.Float(0), nan, expr.Float(3), expr.Float(2.25), null, expr.Float(-7.5))
	case "uk", "wk":
		if r.Intn(9) == 0 {
			return null
		}
		return expr.Int(int64(r.Intn(5)))
	case "uf":
		return pick(expr.Float(3), expr.Float(0), negZero, nan, expr.Float(1), null)
	}
	panic(col)
}

// dirtySources fills the three source tables. On disk every row carries
// a wide pad, so a page holds a few dozen rows and each page its own
// string dictionaries, and a tail of rows stays uncommitted.
func dirtySources(t *testing.T, r *rand.Rand, disk bool) *storage.DB {
	t.Helper()
	db := storage.NewMemDB()
	if disk {
		var err error
		if db, err = storage.Open(t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	sizes := map[string]int{"t": r.Intn(140), "u": r.Intn(14), "w": r.Intn(9)}
	if r.Intn(6) == 0 {
		sizes["t"] = 0 // an empty probe side
	}
	tables := map[string][]xlm.Field{"t": dirtyT, "u": dirtyU, "w": dirtyW}
	tails := map[string][]storage.Row{}
	for _, name := range []string{"t", "u", "w"} {
		var cols []storage.Column
		for _, f := range tables[name] {
			cols = append(cols, storage.Column{Name: f.Name, Type: f.Type})
		}
		if disk {
			cols = append(cols, storage.Column{Name: "pad", Type: "string"})
		}
		tbl, err := db.CreateTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		n := sizes[name]
		for i := 0; i < n; i++ {
			row := storage.Row{}
			for _, f := range tables[name] {
				row = append(row, dirtyValue(r, f.Name))
			}
			if disk {
				row = append(row, expr.Str(strings.Repeat(string(rune('a'+r.Intn(26))), 2000+r.Intn(200))))
			}
			if disk && i >= n*3/4 {
				tails[name] = append(tails[name], row)
				continue
			}
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if disk {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for name, rows := range tails {
			tbl, _ := db.Table(name)
			if err := tbl.InsertAll(rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// dirtyDesign grows a random flow over the dirty sources: a chain of
// operators, a fork into two branches (fan-out), a loader at the end of
// each — replace, or append onto a table the run finds (appendTo). At
// most one operator that can fail a run (division by a column; an int
// column carrying floats towards a loader) is placed, after the fork,
// so that the error a run fails with is one and the same whatever the
// scheduling.
type dirtyDesign struct {
	d         *xlm.Design
	appendTo  map[string]bool
	filtered  string // the replace target a LoadFilter thins, or ""
	mixedAggs int    // aggregates over a column mixing ints and floats
}

func newDirtyDesign(r *rand.Rand) *dirtyDesign {
	dd := &dirtyDesign{d: xlm.NewDesign(fmt.Sprintf("dirty%d", r.Int63())), appendTo: map[string]bool{}}
	d := dd.d
	seq := 0
	fresh := func(prefix string) string {
		seq++
		return fmt.Sprintf("%s%d", prefix, seq)
	}
	node := func(typ xlm.OpType, params map[string]string, inputs ...string) string {
		name := fresh(strings.ToUpper(string(typ[:3])))
		d.AddNode(&xlm.Node{Name: name, Type: typ, Params: params})
		for _, in := range inputs {
			d.AddEdge(in, name)
		}
		return name
	}
	source := func(table string, fields []xlm.Field) string {
		name := fresh("DS_" + table)
		d.AddNode(&xlm.Node{Name: name, Type: xlm.OpDatastore, Fields: fields, Params: map[string]string{"table": table}})
		return name
	}
	of := func(cols []xlm.Field, types ...string) []xlm.Field {
		var out []xlm.Field
		for _, f := range cols {
			if slices.Contains(types, f.Type) {
				out = append(out, f)
			}
		}
		return out
	}
	pick := func(cols []xlm.Field) xlm.Field { return cols[r.Intn(len(cols))] }
	has := func(cols []xlm.Field, name string) bool {
		return slices.ContainsFunc(cols, func(f xlm.Field) bool { return f.Name == name })
	}
	names := func(cols []xlm.Field) []string {
		out := make([]string, len(cols))
		for i, f := range cols {
			out[i] = f.Name
		}
		return out
	}
	subset := func(cols []xlm.Field) []string {
		var out []string
		for _, i := range r.Perm(len(cols))[:1+r.Intn(min(2, len(cols)))] {
			out = append(out, cols[i].Name)
		}
		return out
	}
	predicate := func(cols []xlm.Field, risky bool) string {
		nums, strs, bools := of(cols, "int", "float"), of(cols, "string"), of(cols, "bool")
		ints := of(cols, "int")
		var menu []string
		for _, c := range nums {
			menu = append(menu, fmt.Sprintf("%s > %d", c.Name, r.Intn(6)-1), fmt.Sprintf("%s = 3", c.Name))
		}
		for _, c := range strs {
			menu = append(menu, fmt.Sprintf("%s = 'a'", c.Name), fmt.Sprintf("%s <> 'b'", c.Name))
			if len(nums) > 0 {
				menu = append(menu, fmt.Sprintf("%s = '%s' AND %s <= %d", c.Name, []string{"a", "b", ""}[r.Intn(3)], pick(nums).Name, r.Intn(5)))
			}
		}
		for _, c := range bools {
			menu = append(menu, c.Name+" = TRUE")
		}
		if risky && len(ints) > 1 {
			return fmt.Sprintf("%s / %s > 1", pick(ints).Name, pick(ints).Name)
		}
		if len(menu) == 0 {
			return ""
		}
		return menu[r.Intn(len(menu))]
	}
	// kindful holds the columns whose rows may differ in kind: Functions
	// mixing ints and floats, and the SUM, MIN and MAX over them.
	kindful := map[string]bool{}
	exposable := func(cols []xlm.Field) []xlm.Field {
		var out []xlm.Field
		for _, f := range cols {
			if kindful[f.Name] {
				out = append(out, f)
			}
		}
		return out
	}
	var addOp func(prev string, cols []xlm.Field, risky bool) (string, []xlm.Field)
	addOp = func(prev string, cols []xlm.Field, risky bool) (string, []xlm.Field) {
		nums, ints := of(cols, "int", "float"), of(cols, "int")
		switch op := r.Intn(10); {
		case op == 0 || risky && r.Intn(2) == 0:
			if p := predicate(cols, risky); p != "" {
				return node(xlm.OpSelection, map[string]string{"predicate": p}, prev), cols
			}
			return prev, cols
		case (op == 1 || op == 9) && len(nums) > 0:
			a, b := pick(nums), pick(nums)
			name := fresh("fn")
			if r.Intn(5) == 0 { // a copy: the Function passes the column's vector on
				c := pick(cols)
				kindful[name] = kindful[c.Name]
				return node(xlm.OpFunction, map[string]string{"name": name, "expr": c.Name}, prev), append(slices.Clip(cols), xlm.Field{Name: name, Type: c.Type})
			}
			numeric := "int"
			if a.Type == "float" || b.Type == "float" {
				numeric = "float"
			}
			var e, typ string
			switch k := r.Intn(4); {
			case risky && len(ints) > 0 && k < 2:
				// COALESCE is typed by its first argument: an int column
				// that carries floats, which an int loader rejects.
				e, typ = fmt.Sprintf("COALESCE(%s, %s)", pick(ints).Name, pick(nums).Name), "int"
				if k == 0 {
					e, typ = fmt.Sprintf("%s / %s", pick(ints).Name, pick(ints).Name), "float" // may divide by zero
				}
			case k == 0:
				e, typ = fmt.Sprintf("CONCAT(%s)", pick(cols).Name), "string" // shows the value's kind
			case k == 1:
				e, typ = fmt.Sprintf("%s * 2 + %s", a.Name, b.Name), numeric
			case k == 2:
				e, typ = fmt.Sprintf("%s(%s, %s)", []string{"MIN2", "MAX2"}[r.Intn(2)], a.Name, b.Name), numeric
			default:
				e, typ = a.Name+" / 2", "float" // an int column: Int on even rows, Float on odd ones
			}
			if typ != "string" && (a.Type != b.Type || strings.Contains(e, "/") || strings.HasPrefix(e, "COALESCE")) {
				kindful[name] = true
			}
			return node(xlm.OpFunction, map[string]string{"name": name, "expr": e}, prev), append(slices.Clip(cols), xlm.Field{Name: name, Type: typ})
		case op == 2 || op == 3:
			table, fields := "u", dirtyU
			if op == 3 {
				table, fields = "w", dirtyW
			}
			if slices.ContainsFunc(fields, func(f xlm.Field) bool { return has(cols, f.Name) }) {
				return prev, cols // joined already: its names would be ambiguous
			}
			var on []string
			for _, rf := range fields {
				lefts := of(cols, rf.Type)
				if rf.Type == "int" || rf.Type == "float" {
					lefts = nums
				}
				if len(lefts) > 0 && r.Intn(3) == 0 {
					on = append(on, pick(lefts).Name+"="+rf.Name)
				}
			}
			if len(on) == 0 || len(on) > 2 {
				return prev, cols
			}
			right := source(table, fields)
			if r.Intn(3) == 0 { // a build side that is itself filtered
				if p := predicate(fields, false); p != "" {
					right = node(xlm.OpSelection, map[string]string{"predicate": p}, right)
				}
			}
			out := append(slices.Clip(cols), fields...)
			if r.Intn(4) == 0 { // the flow so far as the build side
				mirrored := make([]string, len(on))
				for i, pair := range on {
					lr := strings.SplitN(pair, "=", 2)
					mirrored[i] = lr[1] + "=" + lr[0]
				}
				return node(xlm.OpJoin, map[string]string{"on": strings.Join(mirrored, ",")}, right, prev), append(slices.Clip(fields), cols...)
			}
			return node(xlm.OpJoin, map[string]string{"on": strings.Join(on, ",")}, prev, right), out
		case op == 4:
			var specs []string
			var out []xlm.Field
			for _, i := range r.Perm(len(cols))[:1+r.Intn(len(cols))] {
				f := cols[i]
				if r.Intn(3) == 0 {
					renamed := fresh("p")
					specs = append(specs, renamed+"="+f.Name)
					kindful[renamed] = kindful[f.Name]
					f.Name = renamed
				} else {
					specs = append(specs, f.Name)
				}
				out = append(out, f)
			}
			return node(xlm.OpProjection, map[string]string{"columns": strings.Join(specs, ",")}, prev), out
		case op == 5:
			a := node(xlm.OpProjection, map[string]string{"columns": strings.Join(names(cols), ",")}, prev)
			b := node(xlm.OpSort, map[string]string{"by": strings.Join(subset(cols), ",")}, prev)
			return node(xlm.OpUnion, nil, a, b), cols
		case op == 6:
			return node(xlm.OpSort, map[string]string{"by": strings.Join(subset(cols), ",")}, prev), cols
		case op == 7:
			name := fresh("sk")
			return node(xlm.OpSurrogateKey, map[string]string{"key": name, "on": strings.Join(subset(cols), ",")}, prev),
				append(slices.Clip(cols), xlm.Field{Name: name, Type: "int"})
		default:
			group := subset(cols)
			if r.Intn(4) == 0 {
				group = nil
			}
			n := fresh("n")
			aggs := []string{n + ":COUNT:"}
			out := []xlm.Field{}
			for _, g := range group {
				out = append(out, cols[slices.IndexFunc(cols, func(f xlm.Field) bool { return f.Name == g })])
			}
			out = append(out, xlm.Field{Name: n, Type: "int"})
			for _, fn := range []string{"SUM", "MIN", "MAX", "AVG", "COUNT"} {
				c := pick(cols)
				if fn == "SUM" || fn == "AVG" {
					if len(nums) == 0 {
						continue
					}
					c = pick(nums)
				}
				if mixed := exposable(cols); len(mixed) > 0 && r.Intn(4) != 0 && fn != "COUNT" {
					c = pick(mixed)
					dd.mixedAggs++
				}
				name := fresh("a")
				kindful[name] = kindful[c.Name] && fn != "AVG" && fn != "COUNT"
				aggs = append(aggs, fmt.Sprintf("%s:%s:%s", name, fn, c.Name))
				typ := c.Type
				switch fn {
				case "AVG":
					typ = "float"
				case "COUNT":
					typ = "int"
				}
				out = append(out, xlm.Field{Name: name, Type: typ})
			}
			params := map[string]string{"aggregates": strings.Join(aggs, ";")}
			if group != nil {
				params["group"] = strings.Join(group, ",")
			}
			return node(xlm.OpAggregation, params, prev), out
		}
	}
	prev, cols := source("t", dirtyT), slices.Clone(dirtyT)
	for i := r.Intn(5); i > 0; i-- {
		prev, cols = addOp(prev, cols, false)
	}
	fork, forkCols := prev, cols
	riskyBranch := -1
	if r.Intn(3) == 0 {
		riskyBranch = r.Intn(2)
	}
	for b := 0; b < 2; b++ {
		prev, cols = fork, forkCols
		for i := r.Intn(3); i > 0; i-- {
			prev, cols = addOp(prev, cols, false)
		}
		if b == riskyBranch {
			prev, cols = addOp(prev, cols, true)
		}
		// What the tables store widens an int into a float column; a
		// string that prints the value keeps its kind.
		for _, f := range exposable(cols) {
			if r.Intn(4) != 0 {
				name := fresh("shown")
				prev = node(xlm.OpFunction, map[string]string{"name": name, "expr": "CONCAT(" + f.Name + ")"}, prev)
				cols = append(slices.Clip(cols), xlm.Field{Name: name, Type: "string"})
			}
		}
		table := fmt.Sprint("out", b)
		mode := "replace"
		if r.Intn(3) == 0 {
			mode = "append"
			dd.appendTo[table] = true
		} else if r.Intn(2) == 0 {
			dd.filtered = table
		}
		node(xlm.OpLoader, map[string]string{"table": table, "mode": mode}, prev)
	}
	return dd
}

// prepare attaches the sources to a fresh scratch database and creates
// the append targets — their columns in another order, one row of NULLs
// already in place.
func (dd *dirtyDesign) prepare(t *testing.T, src *storage.DB, r *rand.Rand) *storage.DB {
	t.Helper()
	db := storage.NewMemDB()
	snap, err := src.Snapshot("t", "u", "w")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t", "u", "w"} {
		view, _ := snap.Table(name)
		if err := db.Attach(view.Freeze()); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range dd.d.Nodes() {
		table := n.Param("table")
		if n.Type != xlm.OpLoader || !dd.appendTo[table] {
			continue
		}
		in := dd.d.Inputs(n.Name)[0].Fields
		cols := make([]storage.Column, len(in))
		for i, j := range r.Perm(len(in)) {
			cols[i] = storage.Column{Name: in[j].Name, Type: in[j].Type}
		}
		tbl, err := db.CreateTable(table, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(make(storage.Row, len(cols))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// keepRow is the LoadFilter's predicate: it keeps a row by a hash of
// its first value — of a number's float image, since the filter sees a
// row before the table widens its ints into float columns.
func keepRow(row []expr.Value) bool {
	h := fnv.New32()
	if f, ok := row[0].AsFloat(); ok {
		fmt.Fprintf(h, "%x", math.Float64bits(f))
	} else {
		fmt.Fprint(h, row[0])
	}
	return h.Sum32()%3 != 0
}

// exactly renders a value with its kind and, for a float, its bits.
func exactly(v expr.Value) string {
	if f, ok := v.AsFloat(); ok && v.Kind() == expr.KindFloat {
		return fmt.Sprintf("float:%x", math.Float64bits(f))
	}
	return fmt.Sprintf("%s:%s", v.Kind(), v)
}

// dirtyOutcome is everything a run is compared on.
type dirtyOutcome struct {
	err    string
	loaded map[string]int64
	stats  map[string][2]int64
	tables map[string][]string
}

func (dd *dirtyDesign) outcome(res *Result, err error, db *storage.DB, filter bool) dirtyOutcome {
	o := dirtyOutcome{loaded: map[string]int64{}, stats: map[string][2]int64{}, tables: map[string][]string{}}
	if err != nil {
		o.err = err.Error()
		return o
	}
	for table, n := range res.Loaded {
		o.loaded[table] = n
	}
	for _, s := range res.Stats {
		o.stats[s.Node] = [2]int64{s.RowsIn, s.RowsOut}
	}
	for _, table := range []string{"out0", "out1"} {
		tbl, ok := db.Table(table)
		if !ok {
			continue
		}
		var rows []string
		for _, c := range tbl.Columns {
			rows = append(rows, c.Name+":"+c.Type)
		}
		for i, row := range tbl.Rows() {
			// The reference has no LoadFilter: thin its loaded rows here.
			if filter && table == dd.filtered && !keepRow(row) {
				o.loaded[table]--
				continue
			}
			var b strings.Builder
			for _, v := range row {
				b.WriteString(exactly(v) + "|")
			}
			rows = append(rows, fmt.Sprint(i, b.String()))
		}
		o.tables[table] = rows
	}
	return o
}

// renumbered drops row numbers, which a thinned table shifts.
func renumbered(rows []string) string {
	var b strings.Builder
	for _, row := range rows {
		b.WriteString(strings.TrimLeft(row, "0123456789") + "\n")
	}
	return b.String()
}

func TestQuickVectorPipelineMatchesReference(t *testing.T) {
	start := time.Now()
	modes := []Options{{Parallelism: 1, BatchSize: 1}, {Parallelism: 4, BatchSize: 7}, {Parallelism: 4},
		{Parallelism: 1}, {Parallelism: 1, BatchSize: 7}, {Parallelism: 4, BatchSize: 1}}
	designs, failed, mixedAggs := 0, 0, 0
	for set := 0; set < 12; set++ {
		r := rand.New(rand.NewSource(int64(set)))
		disk := set%2 == 1
		src := dirtySources(t, r, disk)
		for i := 0; i < 45; i++ {
			dd := newDirtyDesign(r)
			if err := dd.d.Validate(); err != nil {
				t.Fatalf("generator made an invalid design: %v", err)
			}
			designs++
			seed := r.Int63()
			db := dd.prepare(t, src, rand.New(rand.NewSource(seed)))
			ref, err := RunMaterializing(dd.d, db)
			want := dd.outcome(ref, err, db, dd.filtered != "")
			if err != nil {
				failed++
			}
			mixedAggs += dd.mixedAggs
			for m := 0; m < 2; m++ {
				opts := modes[(designs*2+m)%len(modes)]
				if dd.filtered != "" {
					opts.LoadFilter = func(table string, _ []string) (func([]expr.Value) bool, error) {
						if table == dd.filtered {
							return keepRow, nil
						}
						return nil, nil
					}
				}
				db := dd.prepare(t, src, rand.New(rand.NewSource(seed)))
				res, err := RunWithOptions(dd.d, db, opts)
				got := dd.outcome(res, err, db, false)
				if got.err != want.err {
					t.Fatalf("set %d design %d %+v: error %q, reference %q\n%s", set, i, opts, got.err, want.err, describe(dd.d))
				}
				if fmt.Sprint(got.loaded) != fmt.Sprint(want.loaded) || fmt.Sprint(got.stats) != fmt.Sprint(want.stats) {
					t.Fatalf("set %d design %d %+v: loaded %v stats %v, reference %v %v\n%s", set, i, opts, got.loaded, got.stats, want.loaded, want.stats, describe(dd.d))
				}
				for table, rows := range want.tables {
					if renumbered(got.tables[table]) != renumbered(rows) {
						t.Fatalf("set %d design %d %+v: table %s\n%s\nreference\n%s\n%s", set, i, opts, table,
							renumbered(got.tables[table]), renumbered(rows), describe(dd.d))
					}
				}
			}
		}
	}
	t.Logf("%d designs (%d failing alike, %d aggregates over mixed kinds) in %v", designs, failed, mixedAggs, time.Since(start))
	if designs < 500 || failed == 0 || failed > designs/3 || mixedAggs < designs/10 {
		t.Fatalf("generator drifted: %d designs, %d failing", designs, failed)
	}
}

// describe prints a design for a failure message.
func describe(d *xlm.Design) string {
	var lines []string
	order, _ := d.TopoSort()
	for _, n := range order {
		var ins []string
		for _, in := range d.Inputs(n.Name) {
			ins = append(ins, in.Name)
		}
		keys := make([]string, 0, len(n.Params))
		for k := range n.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var params []string
		for _, k := range keys {
			params = append(params, k+"="+n.Params[k])
		}
		lines = append(lines, fmt.Sprintf("  %s %s <- %v %v", n.Name, n.Type, ins, params))
	}
	return strings.Join(lines, "\n")
}

// TestDatastoreKeepsTailBatches reads a memory table longer than one
// tail chunk: the cursor refills its tail vectors chunk after chunk,
// while the batches cut from the previous chunk still wait on a fan-out
// edge. They must have been copied.
func TestDatastoreKeepsTailBatches(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := storage.NewMemDB()
	randTable(r, db, "t", 3000)
	d := xlm.NewDesign("tail")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore, Fields: []xlm.Field{{Name: "k", Type: "int"}, {Name: "g", Type: "string"}, {Name: "x", Type: "float"}},
		Params: map[string]string{"table": "t"}})
	d.AddNode(&xlm.Node{Name: "SORT", Type: xlm.OpSort, Params: map[string]string{"by": "k"}})
	d.AddNode(&xlm.Node{Name: "L1", Type: xlm.OpLoader, Params: map[string]string{"table": "sorted"}})
	d.AddNode(&xlm.Node{Name: "L2", Type: xlm.OpLoader, Params: map[string]string{"table": "copied"}})
	d.AddEdge("DS", "SORT")
	d.AddEdge("SORT", "L1")
	d.AddEdge("DS", "L2")
	assertEngineEquivalence(t, func() *storage.DB { return db }, d)
}
