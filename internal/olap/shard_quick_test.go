package olap_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"quarry/internal/core"
	"quarry/internal/olap"
	"quarry/internal/shard"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// Scatter-gather property check: hash-partition the TPC-H fact across
// 1..8 shard platforms (each loading only its partition via the shard
// load filter, dimensions replicated), answer random cube queries as
// partial aggregates, ship them through the JSON wire, merge — and
// demand byte identity with the single-node star-flow oracle over the
// full data. Shard count 1 is the degenerate case and must also match
// the single-node fast path exactly.

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
			Shard: shard.Spec{Index: i, Count: count},
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

// gatherQuery answers q by the full scatter-gather protocol over the
// shard platforms: per-shard QueryPartial, JSON wire round-trip,
// merge — returning the finalised result.
func gatherQuery(t *testing.T, shards []*core.Platform, q olap.CubeQuery) (*olap.Result, error) {
	t.Helper()
	resps := make([]*shard.PartialResponse, len(shards))
	for i, p := range shards {
		e, err := p.OLAP()
		if err != nil {
			t.Fatal(err)
		}
		partial, err := e.QueryPartial(q)
		if err != nil {
			return nil, err
		}
		spec := p.Shard()
		wire := shard.EncodePartial(spec.Index, spec.Count, partial.Version, partial.Columns, partial.GroupCols, partial.Aggs, partial.Groups)
		// Through JSON, exactly like the HTTP protocol.
		b, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var back shard.PartialResponse
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		resps[i] = &back
	}
	cols, rows, epoch, err := shard.Merge(resps)
	if err != nil {
		return nil, err
	}
	return &olap.Result{Columns: cols, Rows: rows, Version: epoch}, nil
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
		q := randomQuery(r)
		q.Dice = nil // not distributive; its refusal is pinned below
		queries = append(queries, q)
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
		for i, q := range queries {
			merged, errG := gatherQuery(t, shards, q)
			oracle, errO := oracleEng.QueryStarFlow(q)
			if (errG == nil) != (errO == nil) {
				t.Fatalf("count=%d query %d: gather err=%v oracle err=%v (%s)", count, i, errG, errO, queryString(q))
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
	}
}

// Diced queries are refused by the partial executor with a clear
// contract error — never answered wrongly.
func TestQueryPartialRejectsDice(t *testing.T) {
	p, _ := platformWith(t, 1, 5, tpch.RevenueRequirement())
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.QueryPartial(olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_brand"},
		Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT"}},
		Dice:     &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"p_brand": 2}},
	})
	if err == nil {
		t.Fatal("QueryPartial accepted a diced query")
	}
}
