package quarry_test

// End-to-end acceptance test for the disk backend: a TPC-H SF 5
// warehouse loaded on disk answers OLAP queries byte-identically to
// the in-memory run, and keeps doing so after a process "restart"
// (reopening the data directory cold, with no re-generation and no
// re-run of the ETL).

import (
	"reflect"
	"testing"

	"quarry"
	"quarry/internal/olap"
	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// restartQueries is a small OLAP workload covering plain group-bys,
// roll-ups, filters and a dice.
func restartQueries() []olap.CubeQuery {
	return []olap.CubeQuery{
		{
			Fact:    "fact_table_revenue",
			GroupBy: []string{"p_brand"},
			RollUp:  map[string]string{"Supplier": "Nation"},
			Measures: []olap.MeasureSpec{
				{Out: "total", Func: "SUM", Col: "revenue"},
				{Out: "n", Func: "COUNT", Col: ""},
			},
		},
		{
			Fact:    "fact_table_revenue",
			GroupBy: []string{"s_name"},
			Filter:  "p_retailprice > 950",
			Measures: []olap.MeasureSpec{
				{Out: "avg_rev", Func: "AVG", Col: "revenue"},
				{Out: "max_type", Func: "MAX", Col: "p_type"},
			},
		},
		{
			Fact:     "fact_table_revenue",
			GroupBy:  []string{"n_name"},
			Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
			Dice:     &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"n_name": 3}},
		},
	}
}

func buildPlatform(t *testing.T, db *quarry.DB) *quarry.Platform {
	t.Helper()
	onto, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	mapg, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := tpch.Catalog(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := quarry.New(quarry.Config{Ontology: onto, Mapping: mapg, Catalog: cat, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(quarry.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	return p
}

// answers runs the workload on both executors (vectorized fast path
// and star-flow oracle), asserting they agree with each other, and
// returns the results.
func answers(t *testing.T, p *quarry.Platform, label string) []*olap.Result {
	t.Helper()
	oe, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	var out []*olap.Result
	for i, q := range restartQueries() {
		fast, err := oe.Query(q)
		if err != nil {
			t.Fatalf("%s: query %d fast path: %v", label, i, err)
		}
		oracle, err := oe.QueryStarFlow(q)
		if err != nil {
			t.Fatalf("%s: query %d oracle: %v", label, i, err)
		}
		// The answer-source tag names which executor produced the rows,
		// so it differs between the two by construction; identity is
		// about the data, not the path that computed it.
		fastData, oracleData := *fast, *oracle
		fastData.Class, oracleData.Class = "", ""
		if !reflect.DeepEqual(fastData, oracleData) {
			t.Fatalf("%s: query %d fast path and oracle disagree", label, i)
		}
		out = append(out, fast)
	}
	return out
}

func TestDiskRestartByteIdenticalToMemory(t *testing.T) {
	// Oracle run: a database without a directory, end to end.
	memDB := storage.NewMemDB()
	if _, err := tpch.Generate(memDB, 5, 42); err != nil {
		t.Fatal(err)
	}
	memP := buildPlatform(t, memDB)
	if _, err := memP.Run(); err != nil {
		t.Fatal(err)
	}
	want := answers(t, memP, "memory")

	// Same load on the disk backend.
	dir := t.TempDir()
	db, err := quarry.OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpch.Generate(db, 5, 42); err != nil {
		t.Fatal(err)
	}
	diskP := buildPlatform(t, db)
	if _, err := diskP.Run(); err != nil {
		t.Fatal(err)
	}
	got := answers(t, diskP, "disk")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk-backed OLAP answers differ from the in-memory run")
	}

	// "Restart": reopen the directory cold. No generation, no Run —
	// sources and the deployed fact/dimension tables must all be
	// recovered from the manifest.
	reDB, err := quarry.OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reDB.Version() != db.Version() {
		t.Fatalf("reopened version %d, want %d", reDB.Version(), db.Version())
	}
	reP := buildPlatform(t, reDB)
	reGot := answers(t, reP, "reopened")
	if !reflect.DeepEqual(reGot, want) {
		t.Fatal("OLAP answers after restart differ from the in-memory run")
	}
}
