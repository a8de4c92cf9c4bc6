package xlm_test

import (
	"testing"

	"quarry/internal/core"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
)

// canonicalDesigns are the unified xLM designs of the canonical
// requirements, integrated one requirement at a time.
func canonicalDesigns(tb testing.TB) []*xlm.Design {
	tb.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		tb.Fatal(err)
	}
	c, err := tpch.Catalog(1)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: storage.NewMemDB()})
	if err != nil {
		tb.Fatal(err)
	}
	var out []*xlm.Design
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := p.AddRequirement(r); err != nil {
			tb.Fatal(err)
		}
		_, etl := p.Unified()
		out = append(out, etl)
	}
	return out
}

// FuzzXLMUnmarshal feeds the xLM reader what a repository restore feeds
// it: bytes from outside. Reading must not panic, nor must validating
// what was read; and whatever reads writes an xLM text that reads back
// to itself — Marshal(Unmarshal(Marshal(d))) == Marshal(d).
func FuzzXLMUnmarshal(f *testing.F) {
	for _, d := range canonicalDesigns(f) {
		text, err := xlm.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := xlm.Unmarshal(src)
		if err != nil {
			return
		}
		_ = d.Validate()
		once, err := xlm.Marshal(d)
		if err != nil {
			t.Fatalf("marshalling what was read: %v", err)
		}
		back, err := xlm.Unmarshal(once)
		if err != nil {
			t.Fatalf("reading the marshalled form back: %v\n%s", err, once)
		}
		twice, err := xlm.Marshal(back)
		if err != nil {
			t.Fatalf("marshalling the second read: %v", err)
		}
		if twice != once {
			t.Fatalf("not a fixpoint:\n%s\nbecame\n%s", once, twice)
		}
	})
}
