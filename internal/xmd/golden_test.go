package xmd_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"quarry/internal/core"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xmd"
)

var update = flag.Bool("update", false, "rewrite testdata/*.xmd from the writer")

// TestMarshalGolden pins the xMD text GET /api/design serves for the
// canonical requirements: each one's partial design and the unified
// design of all four. Regenerate with `go test ./internal/xmd -update`
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
	designs := map[string]*xmd.Schema{}
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := p.AddRequirement(r); err != nil {
			t.Fatal(err)
		}
		pd, _ := p.Partial(r.ID)
		designs[r.ID] = pd.MD
	}
	designs["unified"], _ = p.Unified()
	for name, d := range designs {
		text, err := xmd.Marshal(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join("testdata", name+".xmd")
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
			t.Errorf("%s: xMD text differs from %s:\n%s", name, path, text)
		}
	}
}
