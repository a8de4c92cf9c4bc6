package core

import (
	"testing"

	"quarry/internal/tpch"
)

// benchmarkRequirementLifecycle times the design half of the loop
// lifecycle_reload runs: a platform holding the four canonical
// requirements; one op removes every one of them and adds them back in
// the same order — interpretation, integration, the satisfiability
// checks and the write of the requirement list each change makes. No
// ETL runs.
func benchmarkRequirementLifecycle(b *testing.B, storeDir string) {
	p, err := New(tpchConfig(b, storeDir))
	if err != nil {
		b.Fatal(err)
	}
	reqs := tpch.CanonicalRequirements()
	for _, r := range reqs {
		if _, err := p.AddRequirement(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := p.RemoveRequirement(r.ID); err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range reqs {
			if _, err := p.AddRequirement(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// tpchConfig is a platform configuration over the TPC-H domain (scale
// factor 1, no database) with its repository in storeDir.
func tpchConfig(tb testing.TB, storeDir string) Config {
	tb.Helper()
	onto, err := tpch.Ontology()
	if err != nil {
		tb.Fatal(err)
	}
	mapg, err := tpch.Mapping()
	if err != nil {
		tb.Fatal(err)
	}
	cat, err := tpch.Catalog(1)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Ontology: onto, Mapping: mapg, Catalog: cat, StoreDir: storeDir}
}

// BenchmarkRequirementLifecycle_Mem: no store directory.
func BenchmarkRequirementLifecycle_Mem(b *testing.B) { benchmarkRequirementLifecycle(b, "") }

// BenchmarkRequirementLifecycle_Dir: a store directory, so every
// change also writes the requirement list.
func BenchmarkRequirementLifecycle_Dir(b *testing.B) {
	benchmarkRequirementLifecycle(b, b.TempDir())
}
