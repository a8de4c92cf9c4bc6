package xmd_test

import (
	"testing"

	"quarry/internal/core"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xmd"
)

// canonicalSchemas are the unified xMD designs of the canonical
// requirements, integrated one requirement at a time.
func canonicalSchemas(tb testing.TB) []*xmd.Schema {
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
	var out []*xmd.Schema
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := p.AddRequirement(r); err != nil {
			tb.Fatal(err)
		}
		md, _ := p.Unified()
		out = append(out, md)
	}
	return out
}

// FuzzXMDUnmarshal feeds the xMD reader what a repository restore feeds
// it: bytes from outside. Reading must not panic, nor must validating
// what was read; and whatever reads writes an xMD text that reads back
// to itself — Marshal(Unmarshal(Marshal(s))) == Marshal(s).
func FuzzXMDUnmarshal(f *testing.F) {
	for _, s := range canonicalSchemas(f) {
		text, err := xmd.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := xmd.Unmarshal(src)
		if err != nil {
			return
		}
		_ = s.Validate()
		once, err := xmd.Marshal(s)
		if err != nil {
			t.Fatalf("marshalling what was read: %v", err)
		}
		back, err := xmd.Unmarshal(once)
		if err != nil {
			t.Fatalf("reading the marshalled form back: %v\n%s", err, once)
		}
		twice, err := xmd.Marshal(back)
		if err != nil {
			t.Fatalf("marshalling the second read: %v", err)
		}
		if twice != once {
			t.Fatalf("not a fixpoint:\n%s\nbecame\n%s", once, twice)
		}
	})
}
