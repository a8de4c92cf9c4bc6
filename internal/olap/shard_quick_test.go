package olap_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"quarry/internal/core"
	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/shard"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// Scatter-gather property check: hash-partition the TPC-H fact across
// 1..8 shard platforms (each loading only its partition via the shard
// load filter, dimensions replicated), answer random cube queries —
// diced ones too — as partial aggregates, ship them through the binary
// frame, merge — and demand byte identity with the single-node
// star-flow oracle over the full data. Shard count 1 is the degenerate
// case and must also match the single-node fast path exactly. Every
// shard has a materialized-aggregate store: the queries run once with
// it cold, then once more after a refresh, answered from its entries.

// shardedPlatforms builds one platform per shard, each generating the
// identical TPC-H source data and loading its own partition.
func shardedPlatforms(t *testing.T, sf float64, seed int64, count int, reqs ...*xrq.Requirement) []*core.Platform {
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
	out := make([]*core.Platform, count)
	for i := 0; i < count; i++ {
		db := storage.NewMemDB()
		if _, err := tpch.Generate(db, sf, seed); err != nil {
			t.Fatal(err)
		}
		p, err := core.New(core.Config{
			Ontology: o, Mapping: m, Catalog: c, DB: db,
			Shard: shard.Spec{Index: i, Count: count}, MatAggTopK: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			if _, err := p.AddRequirement(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// gatherEngines answers q by the scatter-gather protocol over the
// shards' engines, in shard-index order: per shard QueryPartial, the
// binary frame the HTTP protocol ships (MarshalBinary →
// UnmarshalBinary), then shard.Merge. The first shard whose partial
// fails fails the query, as the gather relays the first shard's 4xx.
func gatherEngines(t testing.TB, shards []*olap.Engine, q olap.CubeQuery) (*olap.Result, error) {
	t.Helper()
	resps := make([]*shard.PartialResponse, len(shards))
	for i, e := range shards {
		partial, err := e.QueryPartial(q)
		if err != nil {
			return nil, err
		}
		wire := shard.EncodePartial(i, len(shards), partial.Version, partial.Columns, partial.GroupCols, partial.Aggs, partial.Groups)
		wire.Dice = partial.Dice
		frame, err := wire.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = new(shard.PartialResponse)
		if err := resps[i].UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
	}
	cols, rows, epoch, err := shard.Merge(resps)
	if err != nil {
		return nil, err
	}
	return &olap.Result{Columns: cols, Rows: rows, Version: epoch}, nil
}

// gatherQuery is gatherEngines over the shard platforms' engines.
func gatherQuery(t *testing.T, shards []*core.Platform, q olap.CubeQuery) (*olap.Result, error) {
	t.Helper()
	engines := make([]*olap.Engine, len(shards))
	for i, p := range shards {
		e, err := p.OLAP()
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return gatherEngines(t, engines, q)
}

func TestQuickShardedGatherMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-check in -short mode")
	}
	const sf, seed = 2, 17
	single, _ := platformWith(t, sf, seed, tpch.RevenueRequirement())
	oracleEng, err := single.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed * 13))
	queries := make([]olap.CubeQuery, 0, 18)
	for len(queries) < cap(queries) {
		queries = append(queries, randomQuery(r))
	}
	for count := 1; count <= 8; count++ {
		shards := shardedPlatforms(t, sf, seed, count, tpch.RevenueRequirement())
		// Every fact row must live on exactly one shard: the partition
		// totals reconcile against the single node before any querying.
		countQ := olap.CubeQuery{
			Fact:     "fact_table_revenue",
			GroupBy:  []string{"r_name"},
			Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT"}},
		}
		sumCounts := func(res *olap.Result) (n int64) {
			for _, row := range res.Rows {
				n += row[1].AsInt()
			}
			return n
		}
		totalRows := int64(0)
		for _, p := range shards {
			e, err := p.OLAP()
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Query(countQ)
			if err != nil {
				t.Fatal(err)
			}
			totalRows += sumCounts(res)
		}
		wantRows, err := oracleEng.Query(countQ)
		if err != nil {
			t.Fatal(err)
		}
		if totalRows != sumCounts(wantRows) {
			t.Fatalf("count=%d: shards hold %d fact rows in total, single node has %d", count, totalRows, sumCounts(wantRows))
		}
		for _, warm := range []bool{false, true} {
			for i, q := range queries {
				merged, errG := gatherQuery(t, shards, q)
				oracle, errO := oracleEng.QueryStarFlow(q)
				if (errG == nil) != (errO == nil) || errG != nil && !sameQueryError(errG, errO) {
					t.Fatalf("count=%d query %d (warm: %v): gather err=%v oracle err=%v (%s)", count, i, warm, errG, errO, queryString(q))
				}
				if errG != nil {
					continue
				}
				assertIdentical(t, queryString(q), merged, oracle)
				if count == 1 {
					fast, err := oracleEng.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					assertIdentical(t, "degenerate 1-shard vs fast path: "+queryString(q), merged, fast)
				}
			}
			if !warm {
				refreshShards(t, shards)
			}
		}
		var served int64
		for _, p := range shards {
			st := p.MatAgg().Stats()
			served += st.Hits + st.Rewrites
		}
		if served == 0 {
			t.Fatalf("count=%d: no partial was served from an entry", count)
		}
	}
}

// refreshShards materializes each shard platform's logged patterns.
func refreshShards(t *testing.T, shards []*core.Platform) {
	t.Helper()
	for _, p := range shards {
		e, err := p.OLAP()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.MatAgg().Refresh(e); err != nil {
			t.Fatal(err)
		}
	}
}

// splitStar is one star per shard: every shard holds the dimensions
// whole and a part of the fact's rows, in their order. The rows are cut
// into runs at random points (a run may be empty), which keeps each
// group's first row on the first shard that holds the group, or dealt:
// each row goes to a random shard, so a group's first cell at the
// gather need not stem from its first row, and an answer that depends
// on cell order (the sign of a ±0 key, say) shows.
func splitStar(t *testing.T, r *rand.Rand, star []handTable, n int, dealt bool) []*olap.Engine {
	t.Helper()
	fact := len(star) - 1
	rows := star[fact].rows
	parts := make([][]storage.Row, n)
	if dealt {
		for _, row := range rows {
			i := r.Intn(n)
			parts[i] = append(parts[i], row)
		}
	} else {
		cuts := []int{0, len(rows)}
		for len(cuts) < n+1 {
			cuts = append(cuts, r.Intn(len(rows)+1))
		}
		slices.Sort(cuts)
		for i := range parts {
			parts[i] = rows[cuts[i]:cuts[i+1]]
		}
	}
	engines := make([]*olap.Engine, n)
	for i := range engines {
		part := slices.Clone(star)
		part[fact].rows = parts[i]
		engines[i] = handEngine(t, storage.NewMemDB(), part)
	}
	return engines
}

// handDice draws a dice over q's group columns: a COUNT carat, or a
// SUM carat over qty or over amt, with a threshold on one to all of the
// group columns.
func handDice(r *rand.Rand, q olap.CubeQuery) *olap.DiceSpec {
	d := &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{}}
	scale := 8
	switch r.Intn(3) {
	case 1:
		d.Func, d.Col, scale = "SUM", "qty", 40
	case 2:
		d.Func, d.Col, scale = "SUM", "amt", 600
	}
	for _, i := range r.Perm(len(q.GroupBy))[:1+r.Intn(len(q.GroupBy))] {
		d.Thresholds[q.GroupBy[i]] = float64(r.Intn(scale))
	}
	return d
}

// TestQuickShardedDiceOnHandBuiltStars: random queries, nearly all of
// them diced, over the dirty hand-built stars split over 1–4 shards
// gather byte-identical to the single node, or fail with its error. The
// stars' ±0 dimension values (b_w) land on different shards, and a
// third of the stars carry one negative amt, on one shard only, which
// must fail every query with a SUM carat over amt. Every shard has a
// materialized-aggregate store: the queries run with it cold, then
// again after a refresh, and some must be served from its entries.
func TestQuickShardedDiceOnHandBuiltStars(t *testing.T) {
	stars := 24
	if testing.Short() {
		stars = 4
	}
	var pairs, diced, failed, served int64
	for seed := 0; seed < stars; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		star := handStar(r, 300, []string{"dense", "sparse", "huge"}[seed%3])
		if seed%3 == 0 {
			fact := star[len(star)-1].rows
			at := r.Intn(len(fact))
			fact[at] = slices.Clone(fact[at])
			fact[at][6] = expr.Float(-0.5) // amt
		}
		single := handEngine(t, storage.NewMemDB(), star)
		fleets := make([][]*olap.Engine, 4)
		for n := range fleets {
			fleets[n] = splitStar(t, r, star, n+1, seed%2 == 1)
			for i, e := range fleets[n] {
				fleets[n][i] = e.WithMatAgg(olap.NewMatAgg(8))
			}
		}
		queries := make([]olap.CubeQuery, 25)
		wants, errs := make([]*olap.Result, len(queries)), make([]error, len(queries))
		for i := range queries {
			queries[i] = handQuery(r)
			if r.Intn(8) != 0 {
				queries[i].Dice = handDice(r, queries[i])
			}
			wants[i], errs[i] = single.Query(queries[i])
		}
		for _, warm := range []bool{false, true} {
			for i, q := range queries {
				want, errW := wants[i], errs[i]
				for _, fleet := range fleets {
					pairs++
					got, errG := gatherEngines(t, fleet, q)
					if errW != nil || errG != nil {
						if errW == nil || errG == nil || errW.Error() != errG.Error() {
							t.Fatalf("star %d on %d shards (warm: %v): single node err=%v\ngather err=%v\n(%s)", seed, len(fleet), warm, errW, errG, queryString(q))
						}
						failed++
						continue
					}
					if q.Dice != nil {
						diced++
					}
					assertIdentical(t, fmt.Sprintf("star %d on %d shards (warm: %v): %s", seed, len(fleet), warm, queryString(q)), got, want)
				}
			}
			for _, fleet := range fleets {
				for _, e := range fleet {
					if warm {
						st := e.MatAgg().Stats()
						served += st.Hits + st.Rewrites
					} else if _, err := e.MatAgg().Refresh(e); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	t.Logf("%d (query, partition) pairs: %d diced answers, %d errors, %d partials from entries", pairs, diced, failed, served)
	if min := 4000 * int64(stars) / 24; pairs < min || diced < pairs/2 || failed == 0 || 4*served < pairs/2 {
		t.Fatalf("generator drifted: %d pairs (want %d), %d diced answers, %d errors, %d partials from entries (want a quarter of the warm pairs)", pairs, min, diced, failed, served)
	}
}

// shopFleet is shopStar's fact, one shard per list of rows.
func shopFleet(t *testing.T, shards ...[]storage.Row) []*olap.Engine {
	engines := make([]*olap.Engine, len(shards))
	for i, rows := range shards {
		engines[i] = shopStar(t, rows...)
	}
	return engines
}

// TestShardedDiceEdges: the fleet's dice at its edges, against the
// single node holding every row. −0 on one shard and +0 on another are
// one slice, whose carat only the merge reaches; a negative SUM carat
// value on one shard fails the query with the single node's error,
// though the other shard alone would answer.
func TestShardedDiceEdges(t *testing.T) {
	negZero := math.Copysign(0, -1)
	zeros := [][]storage.Row{
		{shopRow("a", negZero, expr.Null()), shopRow("b", 1, expr.Null())},
		{shopRow("a", 0, expr.Null()), shopRow("b", 2, expr.Null()), shopRow("c", 0, expr.Null())},
	}
	q := olap.CubeQuery{Fact: "sales", GroupBy: []string{"amt"}, Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT"}},
		Dice: &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"amt": 2}}}
	want := bothAnswer(t, shopStar(t, slices.Concat(zeros...)...), q)
	got, err := gatherEngines(t, shopFleet(t, zeros...), q)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "±0 across shards", got, want)
	if len(want.Rows) != 1 || want.Rows[0][1].AsInt() != 3 {
		t.Fatalf("the ±0 slice of 3 rows: %v, want it alone", want.Rows)
	}

	negative := [][]storage.Row{
		{shopRow("a", 1, expr.Null()), shopRow("b", 2, expr.Null())},
		{shopRow("a", 3, expr.Null()), shopRow("b", -1, expr.Null())},
	}
	q = olap.CubeQuery{Fact: "sales", GroupBy: []string{"shop"}, Measures: []olap.MeasureSpec{{Out: "s", Func: "SUM", Col: "amt"}},
		Dice: &olap.DiceSpec{Func: "SUM", Col: "amt", Thresholds: map[string]float64{"shop": 1}}}
	const msg = `olap: dice SUM carat over "amt" requires non-negative values`
	bothFail(t, shopStar(t, slices.Concat(negative...)...), q, msg)
	if _, err := gatherEngines(t, shopFleet(t, negative[0]), q); err != nil {
		t.Fatalf("the first shard alone: %v", err)
	}
	if _, err := gatherEngines(t, shopFleet(t, negative...), q); err == nil || err.Error() != msg {
		t.Fatalf("negative carat on the second shard: %v, want %q", err, msg)
	}
}
