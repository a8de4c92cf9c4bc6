package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// randTable fills a table with n random rows over (k int, g string,
// x float-with-nulls).
func randTable(r *rand.Rand, db *storage.DB, name string, n int) *storage.Table {
	t, err := db.CreateOrReplaceTable(name, []storage.Column{
		{Name: "k", Type: "int"},
		{Name: "g", Type: "string"},
		{Name: "x", Type: "float"},
	})
	if err != nil {
		panic(err)
	}
	groups := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		x := expr.Null()
		if r.Intn(10) != 0 {
			x = expr.Float(float64(r.Intn(1000)) / 4)
		}
		if err := t.Insert(storage.Row{
			expr.Int(int64(r.Intn(20))),
			expr.Str(groups[r.Intn(len(groups))]),
			x,
		}); err != nil {
			panic(err)
		}
	}
	return t
}

func runFlow(db *storage.DB, mid ...*xlm.Node) (*storage.Table, error) {
	d := xlm.NewDesign("quick")
	if err := d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "k", Type: "int"}, {Name: "g", Type: "string"}, {Name: "x", Type: "float"}},
		Params: map[string]string{"table": "t"}}); err != nil {
		return nil, err
	}
	prev := "DS"
	for _, n := range mid {
		if err := d.AddNode(n); err != nil {
			return nil, err
		}
		if err := d.AddEdge(prev, n.Name); err != nil {
			return nil, err
		}
		prev = n.Name
	}
	if err := d.AddNode(&xlm.Node{Name: "OUT", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}}); err != nil {
		return nil, err
	}
	if err := d.AddEdge(prev, "OUT"); err != nil {
		return nil, err
	}
	if _, err := Run(d, db); err != nil {
		return nil, err
	}
	out, _ := db.Table("out")
	return out, nil
}

// Property: Selection matches a direct reference filter (row counts
// and multiset of keys).
func TestQuickSelectionMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := storage.NewMemDB()
		src := randTable(r, db, "t", 50+r.Intn(100))
		threshold := float64(r.Intn(250))
		pred := fmt.Sprintf("x > %g", threshold)
		out, err := runFlow(db, &xlm.Node{Name: "SEL", Type: xlm.OpSelection,
			Params: map[string]string{"predicate": pred}})
		if err != nil {
			return false
		}
		// Reference: NULL x never passes.
		var want int64
		for _, row := range src.Rows() {
			if !row[2].IsNull() {
				if v, _ := row[2].AsFloat(); v > threshold {
					want++
				}
			}
		}
		return out.NumRows() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SUM/COUNT aggregation matches a reference computed by
// direct scanning; AVG = SUM/COUNT.
func TestQuickAggregationMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := storage.NewMemDB()
		src := randTable(r, db, "t", 80+r.Intn(120))
		out, err := runFlow(db, &xlm.Node{Name: "AGG", Type: xlm.OpAggregation,
			Params: map[string]string{"group": "g", "aggregates": "s:SUM:x; c:COUNT:x; a:AVG:x"}})
		if err != nil {
			return false
		}
		sums := map[string]float64{}
		counts := map[string]int64{}
		groups := map[string]bool{}
		for _, row := range src.Rows() {
			g := row[1].AsString()
			groups[g] = true
			if !row[2].IsNull() {
				v, _ := row[2].AsFloat()
				sums[g] += v
				counts[g]++
			}
		}
		if int(out.NumRows()) != len(groups) {
			return false
		}
		ok := true
		for _, row := range out.Rows() {
			g := row[0].AsString()
			if counts[g] == 0 {
				if !row[1].IsNull() || row[2].AsInt() != 0 || !row[3].IsNull() {
					ok = false
				}
				continue
			}
			s, _ := row[1].AsFloat()
			a, _ := row[3].AsFloat()
			if !approxEq(s, sums[g]) || row[2].AsInt() != counts[g] || !approxEq(a, sums[g]/float64(counts[g])) {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

// Property: join output size equals the reference nested-loop count,
// and joining is insensitive to input order (left/right swap with
// mirrored keys).
func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := storage.NewMemDB()
		l, _ := db.CreateOrReplaceTable("l", []storage.Column{{Name: "lk", Type: "int"}, {Name: "lv", Type: "float"}})
		rt, _ := db.CreateOrReplaceTable("r", []storage.Column{{Name: "rk", Type: "int"}, {Name: "rv", Type: "string"}})
		for i := 0; i < 30+r.Intn(50); i++ {
			k := expr.Null()
			if r.Intn(8) != 0 {
				k = expr.Int(int64(r.Intn(10)))
			}
			l.Insert(storage.Row{k, expr.Float(float64(i))})
		}
		for i := 0; i < 20+r.Intn(30); i++ {
			k := expr.Null()
			if r.Intn(8) != 0 {
				k = expr.Int(int64(r.Intn(10)))
			}
			rt.Insert(storage.Row{k, expr.Str(fmt.Sprintf("v%d", i))})
		}
		build := func(leftFirst bool) (int64, bool) {
			d := xlm.NewDesign("j")
			d.AddNode(&xlm.Node{Name: "L", Type: xlm.OpDatastore,
				Fields: []xlm.Field{{Name: "lk", Type: "int"}, {Name: "lv", Type: "float"}},
				Params: map[string]string{"table": "l"}})
			d.AddNode(&xlm.Node{Name: "R", Type: xlm.OpDatastore,
				Fields: []xlm.Field{{Name: "rk", Type: "int"}, {Name: "rv", Type: "string"}},
				Params: map[string]string{"table": "r"}})
			on := "lk=rk"
			a, b := "L", "R"
			if !leftFirst {
				on = "rk=lk"
				a, b = "R", "L"
			}
			d.AddNode(&xlm.Node{Name: "J", Type: xlm.OpJoin, Params: map[string]string{"on": on}})
			d.AddNode(&xlm.Node{Name: "O", Type: xlm.OpLoader, Params: map[string]string{"table": "out_" + a}})
			d.AddEdge(a, "J")
			d.AddEdge(b, "J")
			d.AddEdge("J", "O")
			res, err := Run(d, db)
			if err != nil {
				return 0, false
			}
			return res.Loaded["out_"+a], true
		}
		n1, ok1 := build(true)
		n2, ok2 := build(false)
		if !ok1 || !ok2 {
			return false
		}
		// Reference nested loop.
		var want int64
		right := rt.Rows()
		for _, lr := range l.Rows() {
			if lr[0].IsNull() {
				continue
			}
			for _, rr := range right {
				if !rr[0].IsNull() && lr[0].Equal(rr[0]) {
					want++
				}
			}
		}
		return n1 == want && n2 == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: selection pushdown through a function is
// semantics-preserving: Function→Selection ≡ Selection→Function when
// the predicate only references source columns.
func TestQuickSelectionFunctionCommute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := storage.NewMemDB()
		randTable(r, db, "t", 60+r.Intn(60))
		threshold := float64(r.Intn(200))
		sel := func(name string) *xlm.Node {
			return &xlm.Node{Name: name, Type: xlm.OpSelection,
				Params: map[string]string{"predicate": fmt.Sprintf("x > %g", threshold)}}
		}
		fn := func(name string) *xlm.Node {
			return &xlm.Node{Name: name, Type: xlm.OpFunction,
				Params: map[string]string{"name": "y", "expr": "x * 2 + 1"}}
		}
		out1, err := runFlow(db, fn("F"), sel("S"))
		if err != nil {
			return false
		}
		rows1 := out1.NumRows()
		sum1 := sumCol(out1, "y")
		out2, err := runFlow(db, sel("S"), fn("F"))
		if err != nil {
			return false
		}
		return rows1 == out2.NumRows() && approxEq(sum1, sumCol(out2, "y"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// columnAt is the position of a table's column, or -1.
func columnAt(t *storage.Table, name string) int {
	return slices.IndexFunc(t.Columns, func(c storage.Column) bool { return c.Name == name })
}

func sumCol(t *storage.Table, col string) float64 {
	i := columnAt(t, col)
	if i < 0 {
		return -1
	}
	var s float64
	for _, r := range t.Rows() {
		if !r[i].IsNull() {
			v, _ := r[i].AsFloat()
			s += v
		}
	}
	return s
}

// Property: surrogate keys are dense, 1-based, and identical natural
// keys always get identical surrogate keys.
func TestQuickSurrogateKeyDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := storage.NewMemDB()
		randTable(r, db, "t", 50+r.Intn(100))
		out, err := runFlow(db, &xlm.Node{Name: "SK", Type: xlm.OpSurrogateKey,
			Params: map[string]string{"key": "sk", "on": "g"}})
		if err != nil {
			return false
		}
		gIdx, skIdx := columnAt(out, "g"), columnAt(out, "sk")
		byGroup := map[string]int64{}
		seen := map[int64]bool{}
		ok := true
		for _, row := range out.Rows() {
			g := row[gIdx].AsString()
			sk := row[skIdx].AsInt()
			if prev, has := byGroup[g]; has && prev != sk {
				ok = false
			}
			byGroup[g] = sk
			seen[sk] = true
		}
		if !ok {
			return false
		}
		// Dense 1..N.
		for i := int64(1); i <= int64(len(byGroup)); i++ {
			if !seen[i] {
				return false
			}
		}
		return len(seen) == len(byGroup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
