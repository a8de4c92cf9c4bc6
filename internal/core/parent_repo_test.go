package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"quarry/internal/tpch"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// testdata/parent_repo is a metadata repository directory written by
// the build before the repository stopped storing a JSON projection of
// every design: IR_revenue and IR_netprofit registered, IR_supplycost
// added between them and then removed. Each document carries the
// "json" tree beside its "xml" text.
const parentRepo = "testdata/parent_repo"

var collectionFiles = []string{"requirements.json", "md_designs.json", "etl_designs.json"}

// copyParentRepo copies the fixture into a fresh directory, passing
// each file's documents through edit first when edit is not nil.
func copyParentRepo(t *testing.T, edit func(file string, docs []map[string]any) []map[string]any) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range collectionFiles {
		data, err := os.ReadFile(filepath.Join(parentRepo, name))
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			var docs []map[string]any
			if err := json.Unmarshal(data, &docs); err != nil {
				t.Fatal(err)
			}
			if data, err = json.Marshal(edit(name, docs)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// designTexts is everything a platform's lifecycle consists of, as the
// canonical XML texts: each registered requirement, its stored
// requirement and partial designs, and the unified designs.
func designTexts(t *testing.T, p *Platform) []string {
	t.Helper()
	var out []string
	for _, r := range p.Requirements() {
		out = append(out, r.ID, mustXML(t, xrq.Marshal, r))
		stored, err := p.Repository().Requirement(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		md, err := p.Repository().MD(partialKey(r.ID))
		if err != nil {
			t.Fatal(err)
		}
		etl, err := p.Repository().ETL(partialKey(r.ID))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mustXML(t, xrq.Marshal, stored), mustXML(t, xmd.Marshal, md), mustXML(t, xlm.Marshal, etl))
	}
	md, etl := p.Unified()
	if md == nil || etl == nil {
		t.Fatal("no unified designs")
	}
	return append(out, mustXML(t, xmd.Marshal, md), mustXML(t, xlm.Marshal, etl))
}

func sameDesigns(t *testing.T, what string, got, want *Platform) {
	t.Helper()
	g, w := designTexts(t, got), designTexts(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d design texts, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: design text %d differs:\n%s\nwant\n%s", what, i, g[i], w[i])
		}
	}
}

// TestParentRepositoryRestores: a platform restored from the fixture
// holds byte for byte the designs a fresh in-memory platform derives
// from the same two requirements; after one more change the rewritten
// files carry no "json" key, and a platform reopened over them is the
// live one.
func TestParentRepositoryRestores(t *testing.T) {
	dir := copyParentRepo(t, nil)
	restored := newPersistentPlatform(t, dir)
	fresh := newPersistentPlatform(t, "")
	for _, r := range []*xrq.Requirement{tpch.RevenueRequirement(), tpch.NetProfitRequirement()} {
		if _, err := fresh.AddRequirement(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(restored.Requirements()); got != 2 {
		t.Fatalf("restored %d requirements, want 2", got)
	}
	sameDesigns(t, "restored from the fixture", restored, fresh)

	for _, p := range []*Platform{restored, fresh} {
		if _, err := p.AddRequirement(tpch.QuantityByMarketRequirement()); err != nil {
			t.Fatal(err)
		}
	}
	sameDesigns(t, "after one more change", restored, fresh)
	for _, name := range collectionFiles {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var docs []map[string]any
		if err := json.Unmarshal(data, &docs); err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			keys := make([]string, 0, len(d))
			for k := range d {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, []string{"_id", "format", "xml"}) {
				t.Errorf("%s: document %v has keys %v, want _id, format, xml", name, d["_id"], keys)
			}
		}
	}
	sameDesigns(t, "reopened after the change", newPersistentPlatform(t, dir), restored)
}

// TestParentRepositoryRefusals: a fixture document stripped of its
// text, or given another document's id, fails the platform's start
// naming the collection and the id.
func TestParentRepositoryRefusals(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		edit       func(docs []map[string]any)
		want       string
	}{
		{"no xml", "requirements.json", func(docs []map[string]any) { delete(docs[1], "xml") },
			"collection requirements: IR_netprofit has no xml"},
		{"duplicate _id", "etl_designs.json", func(docs []map[string]any) { docs[2]["_id"] = docs[0]["_id"] },
			`collection etl_designs: duplicate _id "partial:IR_revenue"`},
	} {
		dir := copyParentRepo(t, func(file string, docs []map[string]any) []map[string]any {
			if file == tc.file {
				tc.edit(docs)
			}
			return docs
		})
		_, err := New(tpchConfig(t, dir))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
