package olap_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"quarry/internal/olap"
	"quarry/internal/storage"
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
// rows, so no function falls back to the base path. Every query reads a
// measure of each dimension, so the coarse ones run the entry's joins
// (an entry answers no query that joined other tables than it did).
func TestMatAggFloatSumAndAvgMerged(t *testing.T) {
	e, m := matAggEngine(t, 3, 42)
	fine := olap.CubeQuery{
		Fact:    "fact_table_revenue",
		GroupBy: []string{"p_brand", "s_name"},
		Measures: []olap.MeasureSpec{
			{Out: "total", Func: "SUM", Col: "revenue"},
			{Out: "mean", Func: "AVG", Col: "revenue"},
			{Out: "mean_price", Func: "AVG", Col: "p_retailprice"},
			{Out: "mean_bal", Func: "AVG", Col: "s_acctbal"},
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
	q := olap.CubeQuery{
		Fact:     "fact_table_quantity",
		GroupBy:  []string{"c_mktsegment"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "quantity"}},
	}
	train(t, base.WithMatAgg(m), q, q) // asked twice: the refresh's ageing leaves it in the log
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

// dashPopulation is the distinct-query population of the repository
// benchmark's dash_zipf workload (shapes and literals copied from
// bench/workload — bench/ is a module of its own): four golden
// roll-ups, seven equality-filter families and a `quantity > k` tail.
func dashPopulation() []olap.CubeQuery {
	revenue := []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}, {Out: "n", Func: "COUNT"}}
	quantity := []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "quantity"}, {Out: "n", Func: "COUNT"}}
	rev := func(groupBy []string, rollUp map[string]string, filter string) olap.CubeQuery {
		return olap.CubeQuery{Fact: "fact_table_revenue", GroupBy: groupBy, RollUp: rollUp, Measures: revenue, Filter: filter}
	}
	qty := func(groupBy []string, filter string) olap.CubeQuery {
		return olap.CubeQuery{Fact: "fact_table_quantity", GroupBy: groupBy, Measures: quantity, Filter: filter}
	}
	var brands []string
	for a := 1; a <= 5; a++ {
		for b := 1; b <= 5; b++ {
			brands = append(brands, fmt.Sprintf("Brand#%d%d", a, b))
		}
	}
	types := []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	out := []olap.CubeQuery{
		rev(nil, map[string]string{"Supplier": "Nation"}, ""),
		rev([]string{"s_name"}, nil, ""),
		rev(nil, map[string]string{"Supplier": "Region"}, ""),
		rev([]string{"p_brand"}, nil, ""),
	}
	for _, b := range brands {
		for _, g := range [][]string{{"s_name"}, {"p_type"}, {"p_name"}, {"s_name", "p_type"}} {
			out = append(out, rev(g, nil, "p_brand = '"+b+"'"))
		}
		for _, ty := range types {
			out = append(out, rev([]string{"s_name"}, nil, "p_brand = '"+b+"' AND p_type = '"+ty+"'"))
		}
	}
	for _, ty := range types {
		for _, g := range [][]string{{"s_name"}, {"p_brand"}, {"p_name"}} {
			out = append(out, rev(g, nil, "p_type = '"+ty+"'"))
		}
	}
	for _, s := range []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"} {
		out = append(out, qty([]string{"o_orderpriority"}, "c_mktsegment = '"+s+"'"))
	}
	for _, p := range []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"} {
		out = append(out, qty([]string{"c_mktsegment"}, "o_orderpriority = '"+p+"'"))
	}
	for k := 1; len(out) < 460; k++ {
		out = append(out, qty([]string{"c_mktsegment", "o_orderpriority"}, fmt.Sprintf("quantity > %d", k)))
	}
	return out
}

// TestMatAggServesDashFamilies is the admission policy's regression
// guard outside the benchmark: one pass over the dash_zipf population —
// what reaches the store behind a result cache — then a refresh, then
// the population again. Nearly all of it must be answered from the
// eight aggregates (only the three golden roll-ups over the supplier
// dimension alone have no entry that ran their joins), and every answer
// must be byte-identical to the oracle, a literal no row satisfies
// included. Most families filter a float SUM on a column they do not
// group by, so most answers are merged from a finer entry's partial
// states.
func TestMatAggServesDashFamilies(t *testing.T) {
	p, _ := platformWith(t, 10, 42, tpch.CanonicalRequirements()...)
	base, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	m := olap.NewMatAgg(8)
	e := base.WithMatAgg(m)
	pop := dashPopulation()
	train(t, e, pop...)
	trained := m.Stats()
	// A fact row's quantity is an order's total (a few hundred at most),
	// so the last query keeps no row.
	empty := pop[len(pop)-1]
	empty.Filter = "quantity > 100000"
	for _, q := range append(pop, empty) {
		fast, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := e.QueryStarFlow(q)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, queryString(q), fast, oracle)
		if q.Filter == empty.Filter && len(fast.Rows) != 0 {
			t.Fatalf("%s answered %d rows, want none: the empty-result case is not exercised", queryString(q), len(fast.Rows))
		}
	}
	st := m.Stats()
	hits, rewrites, replayed := st.Hits-trained.Hits, st.Rewrites-trained.Rewrites, int64(len(pop)+1)
	t.Logf("replayed %d queries over %d patterns: %d answered at an entry's granularity, %d merged from finer entries, %d missed",
		replayed, trained.Patterns, hits, rewrites, st.Misses-trained.Misses)
	if rewrites == 0 {
		t.Fatalf("no replayed query was merged from a finer entry: %+v → %+v", trained, st)
	}
	if 100*(hits+rewrites) < 95*replayed {
		t.Fatalf("%d of %d replayed queries answered from aggregates, want 95 %%: the admission policy lost the dashboard (%+v)", hits+rewrites, replayed, st)
	}
}

// TestMatAggLogBoundedAndAges: group-by and measure sets arrive from
// clients, so the log must stay bounded whatever they send, and ageing
// — a halving per Refresh, the log's only reader — must both empty it
// of patterns nobody asks for any more and thereby let in the pattern a
// full log had to drop.
func TestMatAggLogBoundedAndAges(t *testing.T) {
	m := olap.NewMatAgg(4)
	e := handEngine(t, storage.NewMemDB(), handStar(rand.New(rand.NewSource(5)), 20, "dense")).WithMatAgg(m)
	// Thirteen measures: ask(i) reads the subset the bits of i+1 name,
	// a distinct pattern for every i below 2¹³−1.
	measures := []olap.MeasureSpec{{Out: "n", Func: "COUNT"}}
	for _, c := range []string{"k_a", "k_b", "k_c", "qty", "tag", "amt"} {
		measures = append(measures, olap.MeasureSpec{Out: "lo_" + c, Func: "MIN", Col: c}, olap.MeasureSpec{Out: "hi_" + c, Func: "MAX", Col: c})
	}
	ask := func(i int) olap.CubeQuery {
		q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"tag"}}
		for b, ms := range measures {
			if (i+1)>>b&1 == 1 {
				q.Measures = append(q.Measures, ms)
			}
		}
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
		return q
	}
	for i := 0; i < 10*olap.MaxPatterns; i++ {
		ask(i)
		if st := m.Stats(); st.Patterns > olap.MaxPatterns {
			t.Fatalf("after %d distinct patterns the log holds %d, cap %d", i+1, st.Patterns, olap.MaxPatterns)
		}
	}
	if st := m.Stats(); st.Patterns != olap.MaxPatterns || st.Recorded != 10*olap.MaxPatterns {
		t.Fatalf("log holds %d patterns of %d recorded queries, want it full (%d) and every query counted", st.Patterns, st.Recorded, olap.MaxPatterns)
	}
	// The log holds the first MaxPatterns patterns; two more rounds of
	// them make every weight 3, which two halvings take below one.
	for round := 0; round < 2; round++ {
		for i := 0; i < olap.MaxPatterns; i++ {
			ask(i)
		}
	}
	const late = 10 * olap.MaxPatterns // a pattern the log has not seen
	for refresh := 1; refresh <= 2; refresh++ {
		ask(late)
		if st := m.Stats(); st.Patterns != olap.MaxPatterns {
			t.Fatalf("refresh %d: a full log took the newcomer, or aged out too early: %d patterns", refresh, st.Patterns)
		}
		if _, err := m.Refresh(e); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Patterns != 0 {
		t.Fatalf("two refreshes after its last traffic the log still holds %d patterns", st.Patterns)
	}
	q := ask(late)
	if st := m.Stats(); st.Patterns != 1 {
		t.Fatalf("the aged-out log did not take the newcomer: %d patterns", st.Patterns)
	}
	if rep, err := m.Refresh(e); err != nil || rep.Materialized != 1 {
		t.Fatalf("refresh over the newcomer alone: %+v, err %v", rep, err)
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
	assertIdentical(t, "newcomer after ageing", fast, oracle)
	if got := m.Stats().Hits; got != before.Hits+1 {
		t.Fatalf("the newcomer was not served from its aggregate: hits %d → %d", before.Hits, got)
	}
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
