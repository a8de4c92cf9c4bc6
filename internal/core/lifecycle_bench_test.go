package core

import (
	"testing"

	"quarry/internal/storage"
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

// BenchmarkPlatformRun_Dir times the ETL half of the loop: a platform
// holding the four canonical requirements over a disk-backed
// warehouse at SF 100; one op is one warm Run — the unified flow
// executed and committed, with the counts of the run before it in
// hand, as a serving platform's every run after its first.
func BenchmarkPlatformRun_Dir(b *testing.B) {
	const sf = 100
	db, err := storage.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tpch.Generate(db, sf, 42); err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	cfg := tpchConfig(b, "")
	if cfg.Catalog, err = tpch.Catalog(sf); err != nil {
		b.Fatal(err)
	}
	cfg.DB = db
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := p.AddRequirement(r); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := p.Run(); err != nil { // the cold run
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
