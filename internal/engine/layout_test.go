package engine

import (
	"runtime"
	"testing"

	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
)

// TestLayoutsTPCHCanonical pins what the layout pass buys on the flow
// the paper's loop re-runs: the unified canonical design carries the
// Lineitem cardinality through two four-join chains whose logical
// schema grows to 26 columns, and nothing that wide may be shipped.
// The run itself is the check that every column a kernel resolves by
// name is present in the layout it was handed — every constructor
// fails on a missing one.
func TestLayoutsTPCHCanonical(t *testing.T) {
	d, db := benchIntegratedDesign(t, 5)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	layouts, err := planLayouts(d, order)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range order {
		next := 0
		for _, f := range layouts[n.Name] {
			for next < len(n.Fields) && n.Fields[next] != f {
				next++
			}
			if next == len(n.Fields) {
				t.Fatalf("node %q: layout %v is not a subsequence of Fields %v", n.Name, layouts[n.Name], n.Fields)
			}
			next++
		}
	}
	res, err := Run(d, db)
	if err != nil {
		t.Fatal(err)
	}
	li, ok := db.Table("lineitem")
	if !ok {
		t.Fatal("no lineitem table")
	}
	widest, carriers := 0, 0
	for _, s := range res.Stats {
		n, _ := d.Node(s.Node)
		if s.Type == xlm.OpLoader || s.RowsOut != li.NumRows() {
			continue
		}
		carriers++
		widest = max(widest, len(n.Fields))
		if w := len(layouts[s.Node]); w > 6 {
			t.Errorf("node %q ships %d of its %d columns at Lineitem cardinality, want at most 6", s.Node, w, len(n.Fields))
		}
	}
	if carriers < 8 || widest < 26 {
		t.Errorf("flow changed shape: %d nodes at Lineitem cardinality, widest logical schema %d", carriers, widest)
	}
}

// TestPipelinedAllocatesHalfOfMaterializing: same kernels, same
// input, and the only difference is the layouts — so the bytes a run
// allocates are a direct, deterministic reading of how much narrower
// the shipped rows are.
func TestPipelinedAllocatesHalfOfMaterializing(t *testing.T) {
	d, db := benchIntegratedDesign(t, 5)
	allocated := func(run func(*xlm.Design) (*Result, error)) uint64 {
		if _, err := run(d); err != nil { // warm: first run creates the targets
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := run(d); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	full := allocated(func(d *xlm.Design) (*Result, error) { return RunMaterializing(d, db) })
	narrow := allocated(func(d *xlm.Design) (*Result, error) { return Run(d, db) })
	t.Logf("bytes per run: materializing %d, pipelined %d (%.2fx)", full, narrow, float64(full)/float64(narrow))
	if narrow*2 > full {
		t.Errorf("pipelined run allocates %d bytes, more than half of the full-width reference's %d", narrow, full)
	}
}

// TestSlabRowsSharedAcrossConsumers gives the race detector something
// to find: a Function's slab-backed batches fan out to a Join build
// side (which copies what it keeps) and to a Selection → Aggregation
// (which reads in place), on different goroutines at once. It is safe
// only because no operator mutates a received row (see Batch).
func TestSlabRowsSharedAcrossConsumers(t *testing.T) {
	d := xlm.NewDesign("shared_slabs")
	d.AddNode(&xlm.Node{Name: "DS_li", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "l_suppkey", Type: "int"}, {Name: "l_extendedprice", Type: "float"}, {Name: "l_discount", Type: "float"}},
		Params: map[string]string{"table": "lineitem"}})
	d.AddNode(&xlm.Node{Name: "DS_sup", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "s_suppkey", Type: "int"}, {Name: "s_name", Type: "string"}, {Name: "s_nationkey", Type: "int"}},
		Params: map[string]string{"table": "supplier"}})
	d.AddNode(&xlm.Node{Name: "F_net", Type: xlm.OpFunction, Params: map[string]string{"name": "net", "expr": "l_extendedprice * (1 - l_discount)"}})
	d.AddNode(&xlm.Node{Name: "J", Type: xlm.OpJoin, Params: map[string]string{"on": "s_suppkey=l_suppkey"}})
	d.AddNode(&xlm.Node{Name: "SEL", Type: xlm.OpSelection, Params: map[string]string{"predicate": "l_discount < 0.5"}})
	d.AddNode(&xlm.Node{Name: "AGG", Type: xlm.OpAggregation, Params: map[string]string{"group": "l_suppkey", "aggregates": "n:SUM:net; c:COUNT:"}})
	d.AddNode(&xlm.Node{Name: "L_join", Type: xlm.OpLoader, Params: map[string]string{"table": "out_join"}})
	d.AddNode(&xlm.Node{Name: "L_agg", Type: xlm.OpLoader, Params: map[string]string{"table": "out_agg"}})
	d.AddEdge("DS_li", "F_net")
	d.AddEdge("DS_sup", "J")
	d.AddEdge("F_net", "J") // build side
	d.AddEdge("F_net", "SEL")
	d.AddEdge("SEL", "AGG")
	d.AddEdge("J", "L_join")
	d.AddEdge("AGG", "L_agg")
	mkDB := func() *storage.DB {
		db := storage.NewDB()
		if _, err := tpch.Generate(db, 5, 42); err != nil {
			t.Fatal(err)
		}
		return db
	}
	assertEngineEquivalence(t, mkDB, d)
}
