package xlm_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"quarry/internal/core"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
)

var update = flag.Bool("update", false, "rewrite testdata/*.xlm from the writer")

// TestMarshalGolden pins the xLM text GET /api/design serves for the
// canonical requirements: each one's partial design and the unified
// design of all four. Regenerate with `go test ./internal/xlm -update`
// and review the diff.
func TestMarshalGolden(t *testing.T) {
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
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: storage.NewMemDB()})
	if err != nil {
		t.Fatal(err)
	}
	designs := map[string]*xlm.Design{}
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := p.AddRequirement(r); err != nil {
			t.Fatal(err)
		}
		pd, _ := p.Partial(r.ID)
		designs[r.ID] = pd.ETL
	}
	_, designs["unified"] = p.Unified()
	for name, d := range designs {
		text, err := xlm.Marshal(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join("testdata", name+".xlm")
		if *update {
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if text != string(want) {
			t.Errorf("%s: xLM text differs from %s:\n%s", name, path, text)
		}
	}
}
