package core

import (
	"bytes"
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
// "json" tree beside its "xml" text. Builds of that time also stored
// every partial and unified design (md_designs.json, etl_designs.json);
// they are no longer read.
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
// canonical XML texts: each registered requirement, its partial
// designs, and the unified designs.
func designTexts(t *testing.T, p *Platform) []string {
	t.Helper()
	var out []string
	for _, r := range p.Requirements() {
		pd, ok := p.Partial(r.ID)
		if !ok {
			t.Fatalf("no partial design of %s", r.ID)
		}
		out = append(out, r.ID, mustXML(t, xrq.Marshal, r), mustXML(t, xmd.Marshal, pd.MD), mustXML(t, xlm.Marshal, pd.ETL))
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
// requirement list carries no "json" key, the older design files are
// as they were, and a platform reopened over the directory is the live
// one.
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
	data, err := os.ReadFile(filepath.Join(dir, "requirements.json"))
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
			t.Errorf("requirements.json: document %v has keys %v, want _id, format, xml", d["_id"], keys)
		}
	}
	for _, name := range []string{"md_designs.json", "etl_designs.json"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(parentRepo, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed", name)
		}
	}
	sameDesigns(t, "reopened after the change", newPersistentPlatform(t, dir), restored)
}

// TestParentRepositoryRefusals: a fixture requirement stripped of its
// text, or given another requirement's id, fails the platform's start
// naming the collection and the id.
func TestParentRepositoryRefusals(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		edit       func(docs []map[string]any)
		want       string
	}{
		{"no xml", "requirements.json", func(docs []map[string]any) { delete(docs[1], "xml") },
			"collection requirements: IR_netprofit has no xml"},
		{"duplicate _id", "requirements.json", func(docs []map[string]any) { docs[1]["_id"] = docs[0]["_id"] },
			`collection requirements: duplicate _id "IR_revenue"`},
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
