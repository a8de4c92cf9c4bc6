package repo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"quarry/internal/tpch"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
)

func TestInsertGetDelete(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("things")
	id, err := c.Insert(Doc{"name": "a", "n": 1})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("no id assigned")
	}
	d, ok := c.Get(id)
	if !ok || d["name"] != "a" {
		t.Fatalf("Get = %v, %v", d, ok)
	}
	// Returned docs are copies.
	d["name"] = "mutated"
	d2, _ := c.Get(id)
	if d2["name"] != "a" {
		t.Error("Get returned shared state")
	}
	if !c.Delete(id) {
		t.Error("Delete failed")
	}
	if c.Delete(id) {
		t.Error("double delete succeeded")
	}
	if c.Count() != 0 {
		t.Errorf("count = %d", c.Count())
	}
}

func TestExplicitIDsAndDuplicates(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("x")
	if _, err := c.Insert(Doc{"_id": "custom"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Doc{"_id": "custom"}); err == nil {
		t.Error("duplicate id accepted")
	}
	c.Put("custom", Doc{"v": 2}) // replace
	d, _ := c.Get("custom")
	if v, _ := toFloat(d["v"]); v != 2 {
		t.Errorf("Put did not replace: %v", d)
	}
	if c.Count() != 1 {
		t.Errorf("count = %d", c.Count())
	}
}

func TestFindDottedPaths(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("designs")
	c.Insert(Doc{"design": map[string]any{"metadata": map[string]any{"requirement": "IR1"}}, "kind": "etl"})
	c.Insert(Doc{"design": map[string]any{"metadata": map[string]any{"requirement": "IR2"}}, "kind": "etl"})
	c.Insert(Doc{"kind": "md"})
	got := c.Find(map[string]any{"design.metadata.requirement": "IR1"})
	if len(got) != 1 {
		t.Fatalf("Find = %d docs", len(got))
	}
	if len(c.Find(map[string]any{"kind": "etl"})) != 2 {
		t.Error("Find by kind failed")
	}
	if len(c.Find(map[string]any{"kind": "etl", "design.metadata.requirement": "IR2"})) != 1 {
		t.Error("conjunctive Find failed")
	}
	if len(c.Find(map[string]any{"ghost.path": 1})) != 0 {
		t.Error("Find on missing path matched")
	}
}

func TestNumericLaxity(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("n")
	c.Insert(Doc{"v": 42})
	if len(c.Find(map[string]any{"v": float64(42)})) != 1 {
		t.Error("int/float equality failed")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s1.Collection("artifacts")
	c.Insert(Doc{"name": "a", "nested": map[string]any{"k": "v"}})
	c.Insert(Doc{"name": "b"})
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "artifacts.json")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := s2.Collection("artifacts")
	if c2.Count() != 2 {
		t.Fatalf("reloaded count = %d", c2.Count())
	}
	got := c2.Find(map[string]any{"nested.k": "v"})
	if len(got) != 1 || got[0]["name"] != "a" {
		t.Errorf("reloaded find = %v", got)
	}
	// New inserts after reload do not collide with loaded ids.
	if _, err := c2.Insert(Doc{"name": "c"}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenCorruptCollection(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "bad.json"), []byte("not json"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("corrupt collection accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("conc")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Insert(Doc{"w": i})
				c.Find(map[string]any{"w": i})
				c.All()
			}
		}()
	}
	wg.Wait()
	if c.Count() != 400 {
		t.Errorf("count = %d", c.Count())
	}
}

func TestDesignsRepository(t *testing.T) {
	s, _ := Open("")
	d := NewDesigns(s)
	// Requirement round trip.
	r := tpch.RevenueRequirement()
	if err := d.SaveRequirement(r); err != nil {
		t.Fatal(err)
	}
	back, err := d.Requirement(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != r.ID || len(back.Dimensions) != len(r.Dimensions) || back.Measures[0].Function != r.Measures[0].Function {
		t.Errorf("requirement changed: %+v", back)
	}
	if ids := d.Requirements(); len(ids) != 1 || ids[0] != r.ID {
		t.Errorf("Requirements = %v", ids)
	}
	// MD round trip.
	md := &xmd.Schema{
		Name: "m",
		Facts: []*xmd.Fact{{Name: "f", Measures: []xmd.Measure{{Name: "x", Type: "float", Additivity: xmd.AdditivityFlow}},
			Uses: []xmd.DimensionUse{{Dimension: "D", Level: "L"}}}},
		Dimensions: []*xmd.Dimension{{Name: "D", Levels: []*xmd.Level{{Name: "L"}}}},
	}
	if err := d.SaveMD("unified", md); err != nil {
		t.Fatal(err)
	}
	md2, err := d.MD("unified")
	if err != nil {
		t.Fatal(err)
	}
	if md2.Stats() != md.Stats() {
		t.Error("MD schema changed through repository")
	}
	// ETL round trip.
	etl := xlm.NewDesign("e")
	etl.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "a", Type: "int"}}, Params: map[string]string{"table": "t"}})
	etl.AddNode(&xlm.Node{Name: "L", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	etl.AddEdge("DS", "L")
	if err := d.SaveETL("unified", etl); err != nil {
		t.Fatal(err)
	}
	etl2, err := d.ETL("unified")
	if err != nil {
		t.Fatal(err)
	}
	if len(etl2.Nodes()) != 2 || len(etl2.Edges()) != 1 {
		t.Error("ETL design changed through repository")
	}
	// Deletion (requirement evolution).
	if !d.DeleteRequirement(r.ID) {
		t.Error("DeleteRequirement failed")
	}
	if _, err := d.Requirement(r.ID); err == nil {
		t.Error("deleted requirement still loads")
	}
	// Missing keys error.
	if _, err := d.MD("ghost"); err == nil {
		t.Error("missing MD loaded")
	}
}

// TestDesignsJSONFallback verifies the XML-JSON-XML path: when the
// raw XML payload is dropped, the design is regenerated from its JSON
// projection.
func TestDesignsJSONFallback(t *testing.T) {
	s, _ := Open("")
	d := NewDesigns(s)
	r := tpch.RevenueRequirement()
	if err := d.SaveRequirement(r); err != nil {
		t.Fatal(err)
	}
	// Strip the xml field, leaving only the JSON projection.
	col := s.Collection("requirements")
	doc, _ := col.Get(r.ID)
	delete(doc, "xml")
	col.Put(r.ID, doc)
	back, err := d.Requirement(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != r.ID || len(back.Measures) != 1 {
		t.Errorf("JSON-regenerated requirement = %+v", back)
	}
	if back.Slicers[0].Value != "SPAIN" {
		t.Errorf("slicer = %+v", back.Slicers[0])
	}
}

// wholeFile is what Flush wrote before it kept per-document encodings:
// the whole collection through one MarshalIndent.
func wholeFile(t *testing.T, c *Collection) string {
	t.Helper()
	data, err := json.MarshalIndent(c.All(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func readFile(t *testing.T, dir, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestFlushAssemblesTheSameBytes: a file put together from cached
// per-document encodings is byte for byte the MarshalIndent of the
// whole collection — through replacements, deletions, nesting, empty
// containers, characters JSON escapes, and an empty collection.
func TestFlushAssemblesTheSameBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("things")
	empty := s.Collection("nothing")
	check := func(when string) {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, col := range []*Collection{c, empty} {
			if got, want := readFile(t, dir, col.name), wholeFile(t, col); got != want {
				t.Fatalf("%s: %s.json is\n%s\nwant\n%s", when, col.name, got, want)
			}
		}
	}
	check("empty store")
	c.Put("a", Doc{"xml": "<a b=\"1\">&amp;\n\t</a>", "n": 1.5, "nested": map[string]any{
		"list": []any{1.0, "two", map[string]any{"three": []any{}}, []any{[]any{nil, true}}},
		"none": map[string]any{}, "z": nil}})
	check("one document")
	if _, err := c.Insert(Doc{"k": "generated id"}); err != nil {
		t.Fatal(err)
	}
	c.Put("b", Doc{"json": map[string]any{"é": "ü   <>&"}})
	check("three documents")
	c.Put("a", Doc{"replaced": true})
	check("first replaced in place")
	c.Delete("things-000001")
	check("middle deleted")
	c.Delete("a")
	c.Delete("b")
	check("emptied")

	// The real documents: a requirement, an MD schema and an ETL design
	// through the typed repository.
	d := NewDesigns(s)
	if err := d.SaveRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveRequirement(tpch.NetProfitRequirement()); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	reqs := s.Collection(colRequirements)
	if got, want := readFile(t, dir, colRequirements), wholeFile(t, reqs); got != want {
		t.Fatal("requirements.json differs from MarshalIndent of the collection")
	}
	// A reopened store reads back what was assembled.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wholeFile(t, re.Collection(colRequirements)), wholeFile(t, reqs); got != want {
		t.Fatal("reopened collection differs")
	}
}

// TestFlushWritesOnlyWhatChanged: a collection nothing touched since it
// was written, or since it was read at Open, is not written again; any
// Insert, Put or Delete makes it due.
func TestFlushWritesOnlyWhatChanged(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	a, b := s.Collection("a"), s.Collection("b")
	a.Put("x", Doc{"v": 1})
	b.Put("y", Doc{"v": 2})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Scribble over both files: a flush that rewrites one repairs it.
	scribble := func() {
		for _, name := range []string{"a", "b"} {
			if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte("scribble"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	rewritten := func() (out []string) {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b"} {
			if readFile(t, dir, name) != "scribble" {
				out = append(out, name)
			}
		}
		return out
	}
	scribble()
	if got := rewritten(); got != nil {
		t.Fatalf("flush with nothing changed rewrote %v", got)
	}
	steps := []struct {
		name string
		do   func()
		want []string
	}{
		{"Put", func() { a.Put("x", Doc{"v": 3}) }, []string{"a"}},
		{"Insert", func() { b.Insert(Doc{"v": 4}) }, []string{"b"}},
		{"Delete", func() { a.Delete("x") }, []string{"a"}},
		{"Delete of nothing", func() { a.Delete("ghost") }, nil},
		{"reads", func() { a.All(); b.Get("y"); b.Find(map[string]any{"v": 2}) }, nil},
		{"a new collection", func() { s.Collection("a"); s.Collection("b") }, nil},
	}
	for _, step := range steps {
		scribble()
		step.do()
		if got := rewritten(); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after %s the flush rewrote %v, want %v", step.name, got, step.want)
		}
	}

	// Collections read at Open are clean; one created afterwards is
	// written once, empty, as before.
	a.Put("z", Doc{"v": 5})
	b.Put("y", Doc{"v": 6})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, dir, "a"), wholeFile(t, a); got != want {
		t.Fatalf("a.json = %s, want %s", got, want)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b = s.Collection("a"), s.Collection("b")
	scribble()
	if got := rewritten(); got != nil {
		t.Fatalf("first flush after Open rewrote %v", got)
	}
	s.Collection("fresh")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, dir, "fresh"); got != "[]" {
		t.Fatalf("fresh.json = %q, want []", got)
	}
}

// TestFlushFailureStaysDue: a collection whose write failed is written
// by the next flush.
func TestFlushFailureStaysDue(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	c := s.Collection("c")
	c.Put("x", Doc{"v": 1})
	// A directory where the temporary file goes makes the write fail.
	block := filepath.Join(dir, "c.json.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("flush over a blocked path succeeded")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, dir, "c"), wholeFile(t, c); got != want {
		t.Fatalf("c.json = %q, want %q", got, want)
	}
}
