package repo_test

import (
	"testing"

	"quarry/internal/core"
	"quarry/internal/tpch"
)

// BenchmarkRepoFlush_Lifecycle times what the metadata repository's
// Flush costs the design loop lifecycle_reload runs: a disk-backed
// store holding the four canonical requirements with their partial and
// unified designs (≈ 0.5 MB of documents in three collections); one op
// is the two flushes of removing a requirement and adding it back —
// the repository edits each makes (the requirement's three documents
// dropped or stored, both unified designs stored again) happen with the
// timer stopped.
func BenchmarkRepoFlush_Lifecycle(b *testing.B) {
	onto, err := tpch.Ontology()
	if err != nil {
		b.Fatal(err)
	}
	mapg, err := tpch.Mapping()
	if err != nil {
		b.Fatal(err)
	}
	cat, err := tpch.Catalog(1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: onto, Mapping: mapg, Catalog: cat, StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	reqs := tpch.CanonicalRequirements()
	for _, r := range reqs {
		if _, err := p.AddRequirement(r); err != nil {
			b.Fatal(err)
		}
	}
	designs := p.Repository()
	md, etl := p.Unified()
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	saveUnified := func() {
		must(designs.SaveMD("unified", md))
		must(designs.SaveETL("unified", etl))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		pd, _ := p.Partial(r.ID)
		key := "partial:" + r.ID
		b.StopTimer()
		designs.DeleteRequirement(r.ID)
		designs.DeleteMD(key)
		designs.DeleteETL(key)
		saveUnified()
		b.StartTimer()
		must(designs.Flush())
		b.StopTimer()
		must(designs.SaveRequirement(r))
		must(designs.SaveMD(key, pd.MD))
		must(designs.SaveETL(key, pd.ETL))
		saveUnified()
		b.StartTimer()
		must(designs.Flush())
	}
}
