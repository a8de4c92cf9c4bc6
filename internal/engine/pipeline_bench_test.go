package engine

import (
	"testing"

	"quarry/internal/etlintegrator"
	"quarry/internal/interpreter"
	"quarry/internal/quality"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
)

// benchIntegratedDesign builds the multi-branch unified ETL flow over
// all canonical TPC-H requirements plus a generated micro-TPC-H
// instance at the given scale factor — the workload the
// materializing-vs-pipelined speedup is tracked on.
func benchIntegratedDesign(b testing.TB, sf float64) (*xlm.Design, *storage.DB) {
	b.Helper()
	return benchIntegratedDesignIn(b, sf, storage.NewDB())
}

// benchIntegratedDesignIn generates the workload into a
// caller-provided database (e.g. a disk-backed one).
func benchIntegratedDesignIn(b testing.TB, sf float64, db *storage.DB) (*xlm.Design, *storage.DB) {
	b.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		b.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		b.Fatal(err)
	}
	c, err := tpch.Catalog(sf)
	if err != nil {
		b.Fatal(err)
	}
	in, err := interpreter.New(o, m, c)
	if err != nil {
		b.Fatal(err)
	}
	etlInt := etlintegrator.New(quality.DefaultETLCost(c), true)
	var unified *xlm.Design
	for _, r := range tpch.CanonicalRequirements() {
		pd, err := in.Interpret(r)
		if err != nil {
			b.Fatal(err)
		}
		if unified, _, err = etlInt.Integrate(unified, pd.ETL); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tpch.Generate(db, sf, 42); err != nil {
		b.Fatal(err)
	}
	return unified, db
}

func BenchmarkEngineExec_Materializing(b *testing.B) {
	d, db := benchIntegratedDesign(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMaterializing(d, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineExec_Pipelined(b *testing.B) {
	d, db := benchIntegratedDesign(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(d, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExec_Disk is BenchmarkEngineExec_Pipelined against a
// disk-backed warehouse: sources stream through paged cursors and
// every run pays its crash-safe commit (segment writes + manifest
// fsync/rename). The delta over the pipelined benchmark is the whole
// price of durability.
func BenchmarkEngineExec_Disk(b *testing.B) { benchEngineExecDisk(b, 5) }

// BenchmarkEngineExec_Disk_SF100 is the same run where row work, not
// fixed cost, dominates: 60 000 Lineitem rows through the unified
// flow's join chains (SF 5 moves 3 000). It is the write-side
// benchmark that shows what the executor carries per row.
func BenchmarkEngineExec_Disk_SF100(b *testing.B) { benchEngineExecDisk(b, 100) }

func benchEngineExecDisk(b *testing.B, sf float64) {
	db, err := storage.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	d, _ := benchIntegratedDesignIn(b, sf, db)
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(d, db); err != nil {
			b.Fatal(err)
		}
	}
}
