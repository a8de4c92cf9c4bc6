package storage_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"quarry/internal/core"
	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// stagedRun is what one ETL run hands to Publish: the loaded tables'
// schemas and rows.
type stagedRun struct {
	names []string
	cols  [][]storage.Column
	rows  [][]storage.Row
}

// canonicalRun executes the unified flow of the four canonical
// requirements over a generated instance in memory and returns the ten
// tables it loads.
func canonicalRun(tb testing.TB, sf float64) stagedRun {
	tb.Helper()
	onto, err := tpch.Ontology()
	if err != nil {
		tb.Fatal(err)
	}
	mapg, err := tpch.Mapping()
	if err != nil {
		tb.Fatal(err)
	}
	cat, err := tpch.Catalog(sf)
	if err != nil {
		tb.Fatal(err)
	}
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, sf, 42); err != nil {
		tb.Fatal(err)
	}
	sources := map[string]bool{}
	for _, name := range db.TableNames() {
		sources[name] = true
	}
	p, err := core.New(core.Config{Ontology: onto, Mapping: mapg, Catalog: cat, DB: db})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := p.AddRequirement(r); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := p.Run(); err != nil {
		tb.Fatal(err)
	}
	var run stagedRun
	for _, name := range db.TableNames() {
		if sources[name] {
			continue
		}
		t, _ := db.Table(name)
		run.names = append(run.names, name)
		run.cols = append(run.cols, t.Columns)
		run.rows = append(run.rows, t.Rows())
	}
	return run
}

// stage builds the run's detached staging tables.
func (r stagedRun) stage(tb testing.TB) []*storage.Table {
	tb.Helper()
	tables := make([]*storage.Table, len(r.names))
	for i, name := range r.names {
		t, err := storage.NewStagingTable(name, r.cols[i])
		if err != nil {
			tb.Fatal(err)
		}
		if err := t.InsertAll(r.rows[i]); err != nil {
			tb.Fatal(err)
		}
		tables[i] = t
	}
	return tables
}

// BenchmarkCommitRun_SF100 is the storage half of POST /api/run at the
// scale lifecycle_reload runs: the ten tables the canonical unified
// flow loads at SF 100, staged (untimed) and committed to a disk
// database that also holds the generated TPC-H sources, as quarryd's
// warehouse does, each commit replacing the previous one's tables.
// ms/op is the commit's wall time — page cutting, encoding, segment
// writes and fsyncs, manifest stage and install, collection of the
// replaced segments; MB/op the bytes of every table on disk, the
// sources' included; manifest_KB the size of the manifest each commit
// writes, whose page directories are mostly the sources'; encode_share
// the time one goroutine takes to encode the run's pages (measured
// apart, untimed) over the commit's wall time — with -cpu 1 the
// fraction of the commit that is encoding, above that how much of it
// the worker group has to hide.
func BenchmarkCommitRun_SF100(b *testing.B) {
	run := canonicalRun(b, 100)
	if len(run.names) != 10 {
		b.Fatalf("canonical flow loaded %d tables, want 10", len(run.names))
	}
	dir := b.TempDir()
	db, err := storage.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tpch.Generate(db, 100, 42); err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	var encode time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		staged := run.stage(b)
		for ti := range run.names {
			encode += storage.EncodeSerial(run.cols[ti], run.rows[ti])
		}
		b.StartTimer()
		if err := db.Publish(staged...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var bytes int64
	for _, s := range db.DiskStats() {
		bytes += s.Bytes
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
	b.ReportMetric(float64(bytes)/1e6, "MB/op")
	man, err := os.Stat(filepath.Join(dir, "manifest.json"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(man.Size())/1e3, "manifest_KB")
	b.ReportMetric(encode.Seconds()/b.Elapsed().Seconds(), "encode_share")
}
