package olap_test

import (
	"math/rand"
	"sync"
	"testing"

	"quarry/internal/olap"
	"quarry/internal/tpch"
)

// matAggEngine returns the platform's OLAP engine with a fresh
// materialized-aggregate store attached.
func matAggEngine(t *testing.T, sf float64, seed int64) (*olap.Engine, *olap.MatAgg) {
	t.Helper()
	p, _ := platformWith(t, sf, seed, tpch.RevenueRequirement())
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	m := olap.NewMatAgg(16)
	return e.WithMatAgg(m), m
}

// train records the queries in the store's log and materializes the
// top-K aggregates.
func train(t *testing.T, e *olap.Engine, queries ...olap.CubeQuery) {
	t.Helper()
	for _, q := range queries {
		if _, err := e.Query(q); err != nil {
			t.Fatalf("training query failed (%s): %v", queryString(q), err)
		}
	}
	if _, err := e.MatAgg().Refresh(e); err != nil {
		t.Fatalf("refresh: %v", err)
	}
}

// TestMatAggExactGranularityServed: a repeated query is answered from
// its own materialized aggregate, byte-identical to the oracle — for
// every aggregate function (same granularity is a projection of the
// rows finalised at build).
func TestMatAggExactGranularityServed(t *testing.T) {
	e, m := matAggEngine(t, 3, 42)
	q := olap.CubeQuery{
		Fact:    "fact_table_revenue",
		GroupBy: []string{"p_brand"},
		RollUp:  map[string]string{"Supplier": "Nation"},
		Measures: []olap.MeasureSpec{
			{Out: "total", Func: "SUM", Col: "revenue"},
			{Out: "avg", Func: "AVG", Col: "revenue"},
			{Out: "n", Func: "COUNT", Col: ""},
		},
	}
	train(t, e, q)
	before := m.Stats()
	fast, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := e.QueryStarFlow(q)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "exact-granularity hit", fast, oracle)
	after := m.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("query was not served from the aggregate: hits %d → %d (stats %+v)", before.Hits, after.Hits, after)
	}
	if after.Materialized == 0 || after.MaterializedRows == 0 {
		t.Fatalf("nothing materialized: %+v", after)
	}
}

// TestMatAggCoarserRewrite: a query strictly coarser than a
// materialized aggregate merges the entry's partial states and stays
// byte-identical to the oracle.
func TestMatAggCoarserRewrite(t *testing.T) {
	e, m := matAggEngine(t, 3, 42)
	fine := olap.CubeQuery{
		Fact:    "fact_table_revenue",
		GroupBy: []string{"p_brand", "n_name"},
		Measures: []olap.MeasureSpec{
			{Out: "n", Func: "COUNT", Col: ""},
			{Out: "min_p", Func: "MIN", Col: "p_retailprice"},
			{Out: "max_b", Func: "MAX", Col: "s_acctbal"},
			{Out: "keys", Func: "SUM", Col: "p_partkey"},
		},
	}
	train(t, e, fine)
	coarse := fine
	coarse.GroupBy = []string{"p_brand"}
	before := m.Stats()
	fast, err := e.Query(coarse)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := e.QueryStarFlow(coarse)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "coarser rewrite", fast, oracle)
	after := m.Stats()
	if after.Rewrites != before.Rewrites+1 {
		t.Fatalf("coarser query was not rewritten: rewrites %d → %d (stats %+v)", before.Rewrites, after.Rewrites, after)
	}

	// A filtered roll-up whose filter identifiers live in the
	// aggregate's group-by set also rewrites (group-key predicates
	// commute with aggregation).
	filtered := coarse
	filtered.Filter = "n_name = 'SPAIN'"
	fast, err = e.Query(filtered)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err = e.QueryStarFlow(filtered)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "filtered rewrite", fast, oracle)
	if got := m.Stats().Rewrites; got != after.Rewrites+1 {
		t.Fatalf("filtered query was not rewritten: rewrites = %d", got)
	}
}

// TestMatAggFloatSumAndAvgMerged: float SUM and AVG over a finer
// aggregate are served by merging its partial states — exact float
// expansions make the merge byte-identical to one fold over the detail
// rows, so no function falls back to the base path.
func TestMatAggFloatSumAndAvgMerged(t *testing.T) {
	e, m := matAggEngine(t, 3, 42)
	fine := olap.CubeQuery{
		Fact:    "fact_table_revenue",
		GroupBy: []string{"p_brand", "s_name"},
		Measures: []olap.MeasureSpec{
			{Out: "total", Func: "SUM", Col: "revenue"},
			{Out: "mean", Func: "AVG", Col: "revenue"},
			{Out: "mean_price", Func: "AVG", Col: "p_retailprice"},
		},
	}
	train(t, e, fine)
	for _, groupBy := range [][]string{{"p_brand"}, {"s_name"}} {
		coarse := fine
		coarse.GroupBy = groupBy
		before := m.Stats()
		fast, err := e.Query(coarse)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := e.QueryStarFlow(coarse)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "float SUM/AVG merged from a finer aggregate", fast, oracle)
		after := m.Stats()
		if after.Rewrites != before.Rewrites+1 || after.Misses != before.Misses {
			t.Fatalf("float SUM/AVG by %v not served from the finer aggregate: %+v → %+v", groupBy, before, after)
		}
	}
}

// TestMatAggHierarchyDerivedLevels: recording a query at one hierarchy
// level also registers its coarser lattice neighbours (Supplier →
// Nation → Region), so a later roll-up query finds an aggregate at its
// exact granularity — float SUM included.
func TestMatAggHierarchyDerivedLevels(t *testing.T) {
	e, m := matAggEngine(t, 3, 42)
	bySupplier := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"s_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
	}
	train(t, e, bySupplier)
	for _, level := range []string{"Nation", "Region"} {
		q := olap.CubeQuery{
			Fact:     "fact_table_revenue",
			RollUp:   map[string]string{"Supplier": level},
			Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
		}
		before := m.Stats()
		fast, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := e.QueryStarFlow(q)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "derived level "+level, fast, oracle)
		if got := m.Stats().Hits; got != before.Hits+1 {
			t.Fatalf("roll-up to %s not served from its derived aggregate (hits %d → %d)", level, before.Hits, got)
		}
	}
}

// TestMatAggStaleVersionNeverServed: a warehouse republish bumps the
// DB version, making every existing aggregate unservable until the
// next Refresh — queries silently fall back to the base-fact path.
func TestMatAggStaleVersionNeverServed(t *testing.T) {
	p, _ := platformWith(t, 3, 42, tpch.RevenueRequirement())
	base, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	m := olap.NewMatAgg(8)
	e := base.WithMatAgg(m)
	q := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_brand"},
		Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT", Col: ""}},
	}
	train(t, e, q)
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Hits; got != 1 {
		t.Fatalf("warm-up hit count = %d, want 1", got)
	}
	// Republish: deterministic regeneration, but a NEW version.
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	fast, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := e.QueryStarFlow(q)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "post-republish fallback", fast, oracle)
	after := m.Stats()
	if after.Hits != before.Hits || after.Rewrites != before.Rewrites {
		t.Fatalf("stale aggregate served after republish: %+v → %+v", before, after)
	}
	// Refresh rebuilds at the new version; hits resume.
	if _, err := m.Refresh(e); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Hits; got != after.Hits+1 {
		t.Fatalf("refreshed aggregate not served: hits = %d", got)
	}
}

// TestMatAggDirectAppendInvalidates: direct row appends to a deployed
// table do NOT bump the DB version (only engine runs do), so the
// version check alone would serve a stale aggregate. The store
// re-checks source row counts — after an append the query must fall
// back to the base path and match the oracle over the grown table.
func TestMatAggDirectAppendInvalidates(t *testing.T) {
	p, db := platformWith(t, 3, 42, tpch.RevenueRequirement())
	base, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	m := olap.NewMatAgg(8)
	e := base.WithMatAgg(m)
	q := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_brand"},
		Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT", Col: ""}},
	}
	train(t, e, q)
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Hits; got != 1 {
		t.Fatalf("warm-up hit count = %d, want 1", got)
	}
	// Duplicate an existing fact row straight into the live table —
	// valid by construction, COUNT visibly changes, version does not.
	fact, ok := db.Table("fact_table_revenue")
	if !ok {
		t.Fatal("deployed fact table missing")
	}
	vBefore := db.Version()
	if err := fact.Insert(fact.Rows()[0]); err != nil {
		t.Fatal(err)
	}
	if got := db.Version(); got != vBefore {
		t.Fatalf("direct append bumped version %d → %d; test premise broken", vBefore, got)
	}
	before := m.Stats()
	fast, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := e.QueryStarFlow(q)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "post-append fallback", fast, oracle)
	after := m.Stats()
	if after.Hits != before.Hits || after.Rewrites != before.Rewrites {
		t.Fatalf("stale aggregate served after direct append: %+v → %+v", before, after)
	}
}

// TestMatAggRefreshAdvancesWithNothingToBuild: a refresh is current as
// of the warehouse version it started against even when it builds
// nothing. Refresh at version N with a pattern; the design then loses
// that pattern's fact and is republished at N+1 (no Invalidate). The
// next refresh drops the only pattern — and must still advance
// LastRefreshVersion to N+1 and release the version-N entries, or
// whoever waits for last_refresh_version to reach the warehouse
// version waits forever.
func TestMatAggRefreshAdvancesWithNothingToBuild(t *testing.T) {
	p, db := platformWith(t, 2, 42, tpch.RevenueRequirement(), tpch.QuantityByMarketRequirement())
	base, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	m := olap.NewMatAgg(8)
	train(t, base.WithMatAgg(m), olap.CubeQuery{
		Fact:     "fact_table_quantity",
		GroupBy:  []string{"c_mktsegment"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "quantity"}},
	})
	if st := m.Stats(); st.Materialized == 0 || st.LastRefreshVersion != db.Version() {
		t.Fatalf("setup: nothing materialized at version %d: %+v", db.Version(), st)
	}
	if _, err := p.RemoveRequirement(tpch.QuantityByMarketRequirement().ID); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	next, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Refresh(next.WithMatAgg(m))
	if err == nil || rep.Dropped == 0 {
		t.Fatalf("the quantity pattern still plans after its requirement was removed (report %+v, err %v); test premise broken", rep, err)
	}
	st := m.Stats()
	if st.LastRefreshVersion != db.Version() || st.Materialized != 0 {
		t.Fatalf("refresh with nothing to build at version %d: last_refresh_version = %d, materialized = %d", db.Version(), st.LastRefreshVersion, st.Materialized)
	}
	// An empty log refreshes the same way.
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refresh(next.WithMatAgg(m)); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().LastRefreshVersion; got != db.Version() {
		t.Fatalf("refresh over an empty log: last_refresh_version = %d, warehouse at %d", got, db.Version())
	}
}

// TestMatAggServesDashFamilies replays the filter families of the
// repository benchmark's dash_zipf workload (shapes copied from
// bench/workload as literals — bench/ is a module of its own): train on
// some literals, refresh, replay with others. Every family filters a
// float SUM on a column it does not group by, so every answer here is
// merged from a finer entry's partial states; each must be
// byte-identical to the oracle, a literal no row satisfies included.
func TestMatAggServesDashFamilies(t *testing.T) {
	p, _ := platformWith(t, 10, 42, tpch.CanonicalRequirements()...)
	base, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	m := olap.NewMatAgg(8)
	e := base.WithMatAgg(m)
	revenue := []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}, {Out: "n", Func: "COUNT"}}
	quantity := []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "quantity"}, {Out: "n", Func: "COUNT"}}
	// add draws one family: mk's query under the training literals and
	// under the replayed ones.
	var training, replay []olap.CubeQuery
	add := func(trainLits, replayLits []string, mk func(lit string) olap.CubeQuery) {
		for _, lit := range trainLits {
			training = append(training, mk(lit))
		}
		for _, lit := range replayLits {
			replay = append(replay, mk(lit))
		}
	}
	for _, g := range [][]string{{"s_name"}, {"p_type"}, {"p_name"}} {
		add([]string{"Brand#11", "Brand#23"}, []string{"Brand#34", "Brand#52"}, func(b string) olap.CubeQuery {
			return olap.CubeQuery{Fact: "fact_table_revenue", GroupBy: g, Measures: revenue, Filter: "p_brand = '" + b + "'"}
		})
	}
	for _, g := range [][]string{{"s_name"}, {"p_brand"}, {"p_name"}} {
		add([]string{"STANDARD", "PROMO"}, []string{"SMALL", "ECONOMY"}, func(ty string) olap.CubeQuery {
			return olap.CubeQuery{Fact: "fact_table_revenue", GroupBy: g, Measures: revenue, Filter: "p_type = '" + ty + "'"}
		})
	}
	// A fact row's quantity is an order's total (a few hundred at most),
	// so the last literal keeps no row.
	add([]string{"5", "20"}, []string{"12", "50", "100000"}, func(k string) olap.CubeQuery {
		return olap.CubeQuery{Fact: "fact_table_quantity", GroupBy: []string{"c_mktsegment", "o_orderpriority"}, Measures: quantity, Filter: "quantity > " + k}
	})
	train(t, e, training...)
	trained := m.Stats()
	if trained.Patterns == 0 || trained.Materialized == 0 {
		t.Fatalf("the dash families logged or materialized nothing: %+v", trained)
	}
	for _, q := range replay {
		fast, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := e.QueryStarFlow(q)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, queryString(q), fast, oracle)
	}
	if empty, err := e.Query(replay[len(replay)-1]); err != nil || len(empty.Rows) != 0 {
		t.Fatalf("%s answered %d rows (err %v), want none: the empty-result case is not exercised", queryString(replay[len(replay)-1]), len(empty.Rows), err)
	}
	st := m.Stats()
	if st.Rewrites == trained.Rewrites {
		t.Fatalf("no replayed query was merged from a finer entry: %+v → %+v", trained, st)
	}
	t.Logf("replayed %d queries: %d merged from finer entries, %d missed", len(replay)+1, st.Rewrites-trained.Rewrites, st.Misses-trained.Misses)
}

// TestMatAggDimCache: with a store attached, dimension build sides are
// cached across queries at the same version and dropped on republish.
func TestMatAggDimCache(t *testing.T) {
	p, _ := platformWith(t, 3, 42, tpch.RevenueRequirement())
	base, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	m := olap.NewMatAgg(8)
	e := base.WithMatAgg(m)
	// Dicing keeps the query off the aggregate path, so every run
	// exercises the join build phase.
	q := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_brand"},
		Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT", Col: ""}},
		Dice:     &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"p_brand": 1}},
	}
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.DimCacheMisses == 0 {
		t.Fatalf("first query should miss the build-side cache: %+v", st)
	}
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	st2 := m.Stats()
	if st2.DimCacheHits <= st.DimCacheHits {
		t.Fatalf("second query did not reuse the build side: %+v → %+v", st, st2)
	}
	oracle, err := e.QueryStarFlow(q)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "cached build side", cached, oracle)
	// Republish drops the cached build sides (version mismatch).
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	st3 := m.Stats()
	if st3.DimCacheMisses <= st2.DimCacheMisses {
		t.Fatalf("post-republish query did not rebuild the build side: %+v → %+v", st2, st3)
	}
}

// TestQuickMatAggMatchesOracle is the acceptance quick-check: random
// cube queries against a store trained on the same workload must be
// byte-identical to QueryStarFlow, whether they were served from a
// materialized aggregate or fell back — and a healthy share must
// actually be served from aggregates.
func TestQuickMatAggMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-check in -short mode")
	}
	for _, seed := range []int64{11, 4242} {
		e, m := matAggEngine(t, 3, seed)
		r := rand.New(rand.NewSource(seed * 17))
		queries := make([]olap.CubeQuery, 0, 30)
		for i := 0; i < 30; i++ {
			queries = append(queries, randomQuery(r))
		}
		// Train: run the whole workload once, then materialize.
		for _, q := range queries {
			_, _ = e.Query(q) // invalid combinations simply fail; the log keeps the rest
		}
		if _, err := m.Refresh(e); err != nil {
			t.Fatalf("seed %d: refresh: %v", seed, err)
		}
		trained, servable := m.Stats(), 0
		for i, q := range queries {
			fast, errF := e.Query(q)
			oracle, errO := e.QueryStarFlow(q)
			if (errF == nil) != (errO == nil) {
				t.Fatalf("seed %d query %d: fast err=%v oracle err=%v (%s)", seed, i, errF, errO, queryString(q))
			}
			if errF != nil {
				continue
			}
			assertIdentical(t, queryString(q), fast, oracle)
			if q.Dice == nil {
				servable++
			}
		}
		if st := m.Stats(); 3*(st.Hits+st.Rewrites-trained.Hits-trained.Rewrites) < int64(servable) {
			t.Fatalf("seed %d: fewer than a third of the %d successful non-dice queries were served from a materialized aggregate: %+v (before the replay: %+v)", seed, servable, st, trained)
		}
	}
}

// TestMatAggConcurrentRefreshAndQueries exercises the locking
// discipline under -race: queries, refreshes and warehouse republishes
// all run concurrently, and every answer must match the oracle (the
// regenerated data is deterministic, so there is exactly one correct
// answer at every version).
func TestMatAggConcurrentRefreshAndQueries(t *testing.T) {
	p, _ := platformWith(t, 2, 42, tpch.RevenueRequirement())
	base, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	m := olap.NewMatAgg(8)
	e := base.WithMatAgg(m)
	q := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_brand"},
		RollUp:   map[string]string{"Supplier": "Nation"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}, {Out: "n", Func: "COUNT", Col: ""}},
	}
	canonical, err := e.QueryStarFlow(q)
	if err != nil {
		t.Fatal(err)
	}
	train(t, e, q)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // republisher
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := p.Run(); err != nil {
				t.Errorf("republish: %v", err)
				return
			}
		}
		close(stop)
	}()
	go func() { // refresher
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Refresh(e); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
		}
	}()
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				res, err := e.Query(q)
				if err != nil {
					errs <- err.Error()
					return
				}
				got, want := encodeResult(res), encodeResult(canonical)
				if len(got) != len(want) {
					errs <- "row count diverged"
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errs <- "answer diverged from canonical (stale or torn aggregate?)"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
