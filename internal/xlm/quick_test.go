package xlm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// genDesign builds a random valid design: a random number of source
// tables, a chain of random unary ops over each, pairwise joins where
// column names stay disjoint, and loaders on every sink.
func genDesign(r *rand.Rand) *Design {
	d := NewDesign(fmt.Sprintf("gen%d", r.Intn(1000)))
	d.Metadata["seed"] = fmt.Sprint(r.Int63())
	nSrc := 1 + r.Intn(3)
	var heads []string
	for s := 0; s < nSrc; s++ {
		src := fmt.Sprintf("DS%d", s)
		d.AddNode(&Node{Name: src, Type: OpDatastore, Optype: "TableInput",
			Fields: []Field{
				{Name: fmt.Sprintf("k%d", s), Type: "int"},
				{Name: fmt.Sprintf("v%d", s), Type: "float"},
				{Name: fmt.Sprintf("g%d", s), Type: "string"},
			},
			Params: map[string]string{"store": "s", "table": fmt.Sprintf("t%d", s)},
		})
		cur := src
		for i := 0; i < r.Intn(3); i++ {
			name := fmt.Sprintf("OP%d_%d", s, i)
			var n *Node
			switch r.Intn(3) {
			case 0:
				n = &Node{Name: name, Type: OpSelection,
					Params: map[string]string{"predicate": fmt.Sprintf("v%d > %d", s, r.Intn(50))}}
			case 1:
				n = &Node{Name: name, Type: OpFunction,
					Params: map[string]string{"name": fmt.Sprintf("f%d_%d", s, i), "expr": fmt.Sprintf("v%d * %d", s, 1+r.Intn(5))}}
			default:
				n = &Node{Name: name, Type: OpSort,
					Params: map[string]string{"by": fmt.Sprintf("k%d", s)}}
			}
			d.AddNode(n)
			d.AddEdge(cur, name)
			cur = name
		}
		heads = append(heads, cur)
	}
	// Join heads pairwise (schemas are disjoint by construction).
	for len(heads) > 1 {
		l, rr := heads[0], heads[1]
		heads = heads[2:]
		name := fmt.Sprintf("J_%s_%s", l, rr)
		// Join on the int keys of the two sides.
		lk := keyOf(d, l)
		rk := keyOf(d, rr)
		d.AddNode(&Node{Name: name, Type: OpJoin, Params: map[string]string{"on": lk + "=" + rk}})
		d.AddEdge(l, name)
		d.AddEdge(rr, name)
		heads = append([]string{name}, heads...)
	}
	d.AddNode(&Node{Name: "LOAD", Type: OpLoader, Optype: "TableOutput", Params: map[string]string{"table": "out"}})
	d.AddEdge(heads[0], "LOAD")
	return d
}

// keyOf finds an int column flowing out of the node (after schema
// inference the datastore key columns survive every generated op).
func keyOf(d *Design, node string) string {
	if err := d.InferSchemas(); err != nil {
		panic(err)
	}
	n, _ := d.Node(node)
	for _, f := range n.Fields {
		if f.Type == "int" {
			return f.Name
		}
	}
	panic("no int column")
}

// Property: MIN/MAX aggregate over any column type the engine can
// order — strings (lexicographic) and bools (false<true) included —
// and infer the column's own type; SUM/AVG stay numeric-only. This
// pins the validator to the OLAP fast path's semantics (ROADMAP
// "oracle/fast-path parity").
func TestQuickStringMinMaxValidates(t *testing.T) {
	aggDesign := func(fn, col string) *Design {
		d := NewDesign("agg")
		d.AddNode(&Node{Name: "DS", Type: OpDatastore,
			Fields: []Field{{Name: "k", Type: "int"}, {Name: "g", Type: "string"}, {Name: "v", Type: "float"}, {Name: "ok", Type: "bool"}},
			Params: map[string]string{"table": "t"}})
		d.AddNode(&Node{Name: "AGG", Type: OpAggregation,
			Params: map[string]string{"group": "k", "aggregates": "out:" + fn + ":" + col}})
		d.AddNode(&Node{Name: "LOAD", Type: OpLoader, Params: map[string]string{"table": "o"}})
		d.AddEdge("DS", "AGG")
		d.AddEdge("AGG", "LOAD")
		return d
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fn := []string{"MIN", "MAX"}[r.Intn(2)]
		col := []string{"g", "v", "k", "ok"}[r.Intn(4)]
		d := aggDesign(fn, col)
		if err := d.Validate(); err != nil {
			t.Logf("seed %d: %s(%s) rejected: %v", seed, fn, col, err)
			return false
		}
		n, _ := d.Node("AGG")
		wantType := map[string]string{"g": "string", "v": "float", "k": "int", "ok": "bool"}[col]
		for _, fld := range n.Fields {
			if fld.Name == "out" {
				return fld.Type == wantType
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	// SUM over a string column must still be rejected.
	d := aggDesign("SUM", "g")
	if err := d.Validate(); err == nil {
		t.Fatal("SUM over string column validated")
	}
}

// Property: TopoSort is a valid linearisation and Clone is
// independent of the original.
func TestQuickTopoAndClone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := genDesign(r)
		order, err := d.TopoSort()
		if err != nil {
			return false
		}
		pos := map[string]int{}
		for i, n := range order {
			pos[n.Name] = i
		}
		for _, e := range d.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		c := d.Clone()
		// Mutate the clone heavily.
		for _, n := range c.Nodes() {
			n.Params["mutated"] = "yes"
		}
		if err := c.AddNode(&Node{Name: "extra", Type: OpSelection}); err != nil {
			return false
		}
		if _, ok := d.Node("extra"); ok {
			return false
		}
		for _, n := range d.Nodes() {
			if n.Params["mutated"] == "yes" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: InferSchemas is idempotent — re-running it never changes
// the outcome.
func TestQuickInferSchemasIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := genDesign(r)
		if err := d.InferSchemas(); err != nil {
			return false
		}
		snapshot := map[string][]Field{}
		for _, n := range d.Nodes() {
			snapshot[n.Name] = append([]Field(nil), n.Fields...)
		}
		if err := d.InferSchemas(); err != nil {
			return false
		}
		for _, n := range d.Nodes() {
			prev := snapshot[n.Name]
			if len(prev) != len(n.Fields) {
				return false
			}
			for i := range prev {
				if prev[i] != n.Fields[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
