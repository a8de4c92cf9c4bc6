package olap_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"quarry/internal/olap"
	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// dimCacheQuery joins the revenue fact's three dimensions.
var dimCacheQuery = olap.CubeQuery{
	Fact:    "fact_table_revenue",
	GroupBy: []string{"p_brand", "n_name"},
	Measures: []olap.MeasureSpec{
		{Out: "total", Func: "SUM", Col: "revenue"},
		{Out: "n", Func: "COUNT", Col: ""},
	},
	Filter: "s_name <> ''",
}

// TestDimCache: with no MatAgg attached, every engine caches its
// dimension build sides per warehouse version. A repeated query only
// hits; a republish misses, and so does a direct append to a dimension
// (its row count is part of the key, the version is not bumped); a
// design change builds a new engine, which starts cold. The counts
// keep running across engine rebuilds, and every answer — cached sides
// included — is byte-identical to QueryStarFlow.
func TestDimCache(t *testing.T) {
	p, db := platformWith(t, 3, 42, tpch.RevenueRequirement())
	if p.MatAgg() != nil {
		t.Fatal("test premise: the platform has a MatAgg attached")
	}
	ask := func(label string) (hits, misses int64) {
		t.Helper()
		e, err := p.OLAP()
		if err != nil {
			t.Fatal(err)
		}
		h0, m0 := p.DimCacheStats()
		fast, err := e.Query(dimCacheQuery)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		h1, m1 := p.DimCacheStats()
		oracle, err := e.QueryStarFlow(dimCacheQuery)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		assertIdentical(t, label, fast, oracle)
		if h2, m2 := p.DimCacheStats(); h2 != h1 || m2 != m1 {
			t.Fatalf("%s: the oracle touched the dimension cache", label)
		}
		return h1 - h0, m1 - m0
	}
	expect := func(label string, hits, misses, wantHits, wantMisses int64) {
		t.Helper()
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("%s: %d hits, %d misses; want %d, %d", label, hits, misses, wantHits, wantMisses)
		}
	}

	_, joins := ask("first query")
	if joins < 2 {
		t.Fatalf("test premise: the query builds %d dimension sides", joins)
	}
	h, m := ask("repeat")
	expect("repeat", h, m, joins, 0)

	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	h, m = ask("after republish")
	expect("after republish", h, m, 0, joins)
	h, m = ask("repeat after republish")
	expect("repeat after republish", h, m, joins, 0)

	// Duplicate a row of the dimension holding p_brand straight into
	// the live table: the version stands, the row count moves.
	var dim string
	for _, name := range db.TableNames() {
		if tbl, ok := db.Table(name); ok && strings.HasPrefix(name, "dim_") {
			if slices.ContainsFunc(tbl.Columns, func(c storage.Column) bool { return c.Name == "p_brand" }) {
				dim = name
			}
		}
	}
	tbl, ok := db.Table(dim)
	if !ok {
		t.Fatal("no deployed dimension holds p_brand")
	}
	v := db.Version()
	if err := tbl.Insert(tbl.Rows()[0]); err != nil {
		t.Fatal(err)
	}
	if db.Version() != v {
		t.Fatal("test premise: a direct append bumped the version")
	}
	h, m = ask("after a direct append to " + dim)
	expect("after a direct append to "+dim, h, m, joins-1, 1)

	// A design change: the platform builds a new engine, whose cache is
	// empty although the warehouse version is the same.
	if _, err := p.AddRequirement(tpch.QuantityByMarketRequirement()); err != nil {
		t.Fatal(err)
	}
	if db.Version() != v {
		t.Fatal("test premise: a design change bumped the version")
	}
	h, m = ask("after a design change")
	expect("after a design change", h, m, 0, joins)
	h, m = ask("repeat after a design change")
	expect("repeat after a design change", h, m, joins, 0)
}

// TestDimCacheAcrossARepublish (run it under -race): queries over a
// snapshot taken before a republish and queries over the live
// warehouse run while the republish happens, so build sides of two
// versions are built, cached and probed at once. Every answer is the
// one answer the deterministic data has.
func TestDimCacheAcrossARepublish(t *testing.T) {
	p, _ := platformWith(t, 1, 42, tpch.RevenueRequirement())
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.QueryStarFlow(dimCacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	old, err := e.Snapshot(dimCacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if _, err := p.Run(); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var got *olap.Result
				var err error
				if (w+i)%2 == 0 {
					got, err = e.QuerySnapshot(dimCacheQuery, old)
				} else {
					got, err = e.Query(dimCacheQuery)
				}
				if err != nil {
					errs <- err
					return
				}
				if g, o := encodeResult(got), encodeResult(want); strings.Join(g, "\n") != strings.Join(o, "\n") {
					errs <- errMismatch(dimCacheQuery)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hits, misses := p.DimCacheStats(); hits == 0 || misses == 0 {
		t.Fatalf("%d hits, %d misses: the run did not exercise the cache", hits, misses)
	}
}
