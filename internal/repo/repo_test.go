package repo

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"quarry/internal/tpch"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// smallMD and smallETL are the smallest designs the formats accept.
func smallMD(name string) *xmd.Schema {
	return &xmd.Schema{
		Name: name,
		Facts: []*xmd.Fact{{Name: "f", Measures: []xmd.Measure{{Name: "x", Type: "float", Additivity: xmd.AdditivityFlow}},
			Uses: []xmd.DimensionUse{{Dimension: "D", Level: "L"}}}},
		Dimensions: []*xmd.Dimension{{Name: "D", Levels: []*xmd.Level{{Name: "L"}}}},
	}
}

func smallETL(name string) *xlm.Design {
	etl := xlm.NewDesign(name)
	etl.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "a", Type: "int"}}, Params: map[string]string{"table": "t"}})
	etl.AddNode(&xlm.Node{Name: "L", Type: xlm.OpLoader, Params: map[string]string{"table": "out"}})
	etl.AddEdge("DS", "L")
	return etl
}

// requirement is the revenue requirement under another id.
func requirement(id string) *xrq.Requirement {
	r := tpch.RevenueRequirement().Clone()
	r.ID = id
	return r
}

func TestDesignsRepository(t *testing.T) {
	d, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
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
	md := smallMD("m")
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
	if err := d.SaveETL("unified", smallETL("e")); err != nil {
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
	if d.DeleteRequirement(r.ID) {
		t.Error("double delete succeeded")
	}
	if _, err := d.Requirement(r.ID); err == nil {
		t.Error("deleted requirement still loads")
	}
	// Missing keys error.
	if _, err := d.MD("ghost"); err == nil {
		t.Error("missing MD loaded")
	}
}

func readFile(t *testing.T, dir, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestFlushAssemblesTheSameBytes: a collection's file, put together
// from cached per-document encodings, is byte for byte the
// MarshalIndent of its documents in order — through replacements,
// deletions, characters JSON escapes and empty collections — and a
// reopened repository writes the same bytes again.
func TestFlushAssemblesTheSameBytes(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// want holds each collection's documents in order, kept beside the
	// repository by the test.
	want := map[string][]document{"requirements": {}, "md_designs": {}, "etl_designs": {}}
	put := func(col, format, id, text string) {
		for i, doc := range want[col] {
			if doc.ID == id {
				want[col][i].XML = text
				return
			}
		}
		want[col] = append(want[col], document{ID: id, Format: format, XML: text})
	}
	drop := func(col, id string) {
		for i, doc := range want[col] {
			if doc.ID == id {
				want[col] = append(want[col][:i], want[col][i+1:]...)
				return
			}
		}
	}
	check := func(d *Designs, when string) {
		t.Helper()
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		for col, docs := range want {
			data, err := json.MarshalIndent(docs, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, dir, col); got != string(data) {
				t.Fatalf("%s: %s.json is\n%s\nwant\n%s", when, col, got, data)
			}
		}
	}
	saveReq := func(r *xrq.Requirement) {
		t.Helper()
		if err := d.SaveRequirement(r); err != nil {
			t.Fatal(err)
		}
		text, _ := xrq.Marshal(r)
		put("requirements", "xRQ", r.ID, text)
	}
	saveMD := func(key string, s *xmd.Schema) {
		t.Helper()
		if err := d.SaveMD(key, s); err != nil {
			t.Fatal(err)
		}
		text, _ := xmd.Marshal(s)
		put("md_designs", "xMD", key, text)
	}
	saveETL := func(key string, e *xlm.Design) {
		t.Helper()
		if err := d.SaveETL(key, e); err != nil {
			t.Fatal(err)
		}
		text, _ := xlm.Marshal(e)
		put("etl_designs", "xLM", key, text)
	}

	check(d, "empty repository")
	odd := requirement("IR_odd")
	odd.Name = "quotes \" and <tags> & ümlauts é\n\ttabs,   and \x7f"
	saveReq(tpch.RevenueRequirement())
	saveReq(odd)
	saveReq(tpch.NetProfitRequirement())
	saveMD("unified", smallMD("m"))
	saveETL("unified", smallETL("e"))
	check(d, "one of each")
	saveMD("partial:IR_odd", smallMD("p"))
	saveETL("partial:IR_odd", smallETL("p"))
	saveMD("unified", smallMD("m2"))
	check(d, "unified replaced in place")
	d.DeleteRequirement("IR_odd")
	drop("requirements", "IR_odd")
	check(d, "middle deleted")
	for _, key := range []string{"unified", "partial:IR_odd"} {
		d.DeleteMD(key)
		drop("md_designs", key)
	}
	check(d, "md emptied")

	// A reopened repository holds what was assembled, and writes it again
	// byte for byte once a change makes every collection due.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Requirements(), []string{"IR_revenue", "IR_netprofit"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened requirements %v, want %v", got, want)
	}
	d = re // the save helpers write to the reopened repository from here on
	saveReq(tpch.RevenueRequirement())
	saveMD("unified", smallMD("m3"))
	saveETL("unified", smallETL("e3"))
	check(re, "reopened and changed")
}

// TestFlushWritesOnlyWhatChanged: a collection nothing touched since it
// was written, or since it was read at Open, is not written again; any
// save or delete makes it due.
func TestFlushWritesOnlyWhatChanged(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(dir)
	if err := d.SaveRequirement(requirement("IR_a")); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveMD("m", smallMD("m")); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveETL("e", smallETL("e")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	names := []string{"requirements", "md_designs", "etl_designs"}
	// Scribble over every file: a flush that rewrites one repairs it.
	scribble := func() {
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte("scribble"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	rewritten := func() (out []string) {
		t.Helper()
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
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
		{"SaveRequirement", func() { d.SaveRequirement(requirement("IR_a")) }, []string{"requirements"}},
		{"SaveMD", func() { d.SaveMD("m2", smallMD("m2")) }, []string{"md_designs"}},
		{"DeleteETL", func() { d.DeleteETL("e") }, []string{"etl_designs"}},
		{"Delete of nothing", func() { d.DeleteMD("ghost"); d.DeleteRequirement("ghost") }, nil},
		{"reads", func() { d.Requirement("IR_a"); d.MD("m"); d.ETL("ghost"); d.Requirements() }, nil},
	}
	for _, step := range steps {
		scribble()
		step.do()
		if got := rewritten(); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after %s the flush rewrote %v, want %v", step.name, got, step.want)
		}
	}

	// Collections read at Open are clean; one whose file is missing is
	// written once, empty.
	d.SaveRequirement(requirement("IR_b"))
	d.SaveMD("m", smallMD("m3"))
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "etl_designs.json")); err != nil {
		t.Fatal(err)
	}
	var err error
	if d, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	names = names[:2]
	scribble()
	if got := rewritten(); got != nil {
		t.Fatalf("first flush after Open rewrote %v", got)
	}
	if got := readFile(t, dir, "etl_designs"); got != "[]" {
		t.Fatalf("etl_designs.json = %q, want []", got)
	}
}

// TestFlushFailureStaysDue: a collection whose write failed is written
// by the next flush.
func TestFlushFailureStaysDue(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(dir)
	if err := d.SaveRequirement(requirement("IR_a")); err != nil {
		t.Fatal(err)
	}
	// A directory where the temporary file goes makes the write fail.
	block := filepath.Join(dir, "requirements.json.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err == nil {
		t.Fatal("flush over a blocked path succeeded")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Requirements(); !reflect.DeepEqual(got, []string{"IR_a"}) {
		t.Fatalf("after the second flush the file holds %v, want [IR_a]", got)
	}
}

// TestOpenCorruptCollection: a collection file that is not an array of
// documents, or holds a document without an id or text or a repeated
// id, fails Open naming the collection (and the document).
func TestOpenCorruptCollection(t *testing.T) {
	for _, c := range []struct{ file, data, want string }{
		{"requirements", "not json", "collection requirements corrupt"},
		{"md_designs", `{"_id": "m"}`, "collection md_designs corrupt"},
		{"etl_designs", `[{"format": "xLM", "xml": "<etl/>"}]`, "etl_designs: document 0 has no _id"},
		{"requirements", `[{"_id": "IR_a", "format": "xRQ", "json": {}}]`, "requirements: IR_a has no xml"},
		{"md_designs", `[{"_id": "m", "xml": "<a/>"}, {"_id": "m", "xml": "<b/>"}]`, `md_designs: duplicate _id "m"`},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, c.file+".json"), []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Open over %s.json = %s: error %v, want one containing %q", c.file, c.data, err, c.want)
		}
	}
}

// TestConcurrentSaveLoadDeleteFlush: eight goroutines save, load,
// delete and flush at once (run it under -race); the directory then
// holds exactly what the repository holds.
func TestConcurrentSaveLoadDeleteFlush(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("IR_w%d_%d", w, i)
				if err := d.SaveRequirement(requirement(id)); err != nil {
					errs <- err
					return
				}
				if err := d.SaveMD("unified", smallMD(id)); err != nil {
					errs <- err
					return
				}
				if err := d.SaveETL("partial:"+id, smallETL(id)); err != nil {
					errs <- err
					return
				}
				if r, err := d.Requirement(id); err != nil || r.ID != id {
					errs <- fmt.Errorf("load %s: %v, %v", id, r, err)
					return
				}
				d.MD("unified")
				d.Requirements()
				if i%2 == 1 && (!d.DeleteRequirement(id) || !d.DeleteETL("partial:"+id)) {
					errs <- fmt.Errorf("delete %s failed", id)
					return
				}
				if err := d.Flush(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(d.Requirements()); got != 80 {
		t.Fatalf("%d requirements, want 80", got)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Requirements(), d.Requirements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened requirements %v, want %v", got, want)
	}
}
