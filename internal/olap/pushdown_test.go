package olap_test

// Byte-identity suite for the storage-v2 fast-path machinery: filter
// pushdown into zone-map-pruning cursors and dictionary-coded group
// keys must leave every answer byte-identical — fast path vs star-flow
// oracle, with vs without a directory, pruning on vs off, and across a cold
// restart of the disk warehouse.

import (
	"testing"

	"quarry/internal/core"
	"quarry/internal/olap"
	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// pushdownQueries exercises every interesting pushdown/coding shape:
// fact-column predicates, dimension predicates on both build sides,
// string equality, unpushable ORs, coded string group keys, a group
// key excluded from coding because an aggregate reads it, and a dice
// (which disables coding entirely).
var pushdownQueries = []olap.CubeQuery{
	{Fact: "fact_table_revenue", GroupBy: []string{"p_brand", "n_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
		Filter:   "revenue > 5000"},
	{Fact: "fact_table_revenue", GroupBy: []string{"s_name"},
		Measures: []olap.MeasureSpec{{Out: "rows", Func: "COUNT", Col: ""}},
		Filter:   "p_retailprice > 950 AND s_acctbal > 0"},
	{Fact: "fact_table_revenue", GroupBy: []string{"p_type"},
		Measures: []olap.MeasureSpec{
			{Out: "first", Func: "MIN", Col: "p_type"},
			{Out: "total", Func: "SUM", Col: "revenue"}},
		Filter: "p_type = 'STANDARD'"},
	{Fact: "fact_table_revenue", GroupBy: []string{"p_brand"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
		Filter:   "p_type = 'STANDARD' OR p_type = 'PROMO'"},
	{Fact: "fact_table_revenue", GroupBy: []string{"p_brand", "r_name"},
		Measures: []olap.MeasureSpec{{Out: "avg", Func: "AVG", Col: "revenue"}},
		Filter:   "revenue > 5000 AND p_retailprice > 920"},
	{Fact: "fact_table_revenue", GroupBy: []string{"p_brand", "s_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}}},
	{Fact: "fact_table_revenue", GroupBy: []string{"n_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
		Filter:   "revenue > 2000",
		Dice:     &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"n_name": 2}}},
}

// diskPlatform assembles a platform over a disk warehouse at whDir
// with its metadata repository at metaDir. When seed ≥ 0 the source
// data is generated and the warehouse populated; seed < 0 is a cold
// restart — designs restore from metaDir, warehouse tables from the
// committed manifest, and no ETL runs.
func diskPlatform(t *testing.T, whDir, metaDir string, sf float64, seed int64) *core.Platform {
	t.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(whDir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db, StoreDir: metaDir})
	if err != nil {
		t.Fatal(err)
	}
	if seed >= 0 {
		if _, err := tpch.Generate(p.DB(), sf, seed); err != nil {
			t.Fatal(err)
		}
		if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestPushdownDiskIdentity(t *testing.T) {
	whDir, metaDir := t.TempDir(), t.TempDir()
	const sf, seed = 2, 11
	mem, _ := platformWith(t, sf, seed, tpch.RevenueRequirement())
	memEng, err := mem.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	disk := diskPlatform(t, whDir, metaDir, sf, seed)
	diskEng, err := disk.OLAP()
	if err != nil {
		t.Fatal(err)
	}

	memResults := make([]*olap.Result, len(pushdownQueries))
	for i, q := range pushdownQueries {
		memRes, err := memEng.Query(q)
		if err != nil {
			t.Fatalf("mem query %d: %v", i, err)
		}
		memResults[i] = memRes
		fast, err := diskEng.Query(q)
		if err != nil {
			t.Fatalf("disk query %d: %v", i, err)
		}
		oracle, err := diskEng.QueryStarFlow(q)
		if err != nil {
			t.Fatalf("disk oracle %d: %v", i, err)
		}
		assertIdentical(t, "disk fast vs disk oracle: "+queryString(q), fast, oracle)
		assertIdentical(t, "disk fast vs mem fast: "+queryString(q), fast, memRes)

		// Pruning off must change nothing but the pages read.
		prev := storage.SetZoneMapPruning(false)
		unpruned, err := diskEng.Query(q)
		storage.SetZoneMapPruning(prev)
		if err != nil {
			t.Fatalf("unpruned disk query %d: %v", i, err)
		}
		assertIdentical(t, "pruning on vs off: "+queryString(q), fast, unpruned)
	}

	// Cold restart: a fresh platform over the same directories serves
	// the same bytes without re-running any ETL.
	re := diskPlatform(t, whDir, metaDir, sf, -1)
	if got := len(re.Requirements()); got != 1 {
		t.Fatalf("restart restored %d requirements, want 1", got)
	}
	reEng, err := re.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range pushdownQueries {
		fast, err := reEng.Query(q)
		if err != nil {
			t.Fatalf("restarted query %d: %v", i, err)
		}
		assertIdentical(t, "cold restart vs mem: "+queryString(q), fast, memResults[i])
	}
}
