package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"quarry/internal/core"
	"quarry/internal/router"
	"quarry/internal/shard"
	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// End-to-end sharding: two real quarryd serving stacks, each holding
// one hash partition of the TPC-H fact, fronted by the gather router —
// the HTTP bodies must be byte-identical to an unsharded control node
// over the full data, and a dead shard must fail queries loudly.

// shardedTestPlatform builds one shard's platform (same source data as
// the control, partition-filtered load), with a materialized-aggregate
// store, as quarryd runs a shard by default; nothing refreshes it until
// a test does, so its entries start cold.
func shardedTestPlatform(t *testing.T, sf float64, spec shard.Spec) *core.Platform {
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
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, sf, 42); err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db, Shard: spec, MatAggTopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

// shardQueryMix covers every measure type the merge algebra handles:
// int COUNT, float SUM and AVG (exactness-critical), string MIN/MAX,
// filters and roll-ups.
var shardQueryMix = []string{
	`{"fact":"fact_table_revenue","group_by":["n_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"}]}`,
	`{"fact":"fact_table_revenue","group_by":["r_name"],"measures":[{"out":"avg_rev","func":"AVG","col":"revenue"},{"out":"n","func":"COUNT"}]}`,
	`{"fact":"fact_table_revenue","group_by":["p_brand"],"measures":[{"out":"min_type","func":"MIN","col":"p_type"},{"out":"max_type","func":"MAX","col":"p_type"},{"out":"total","func":"SUM","col":"revenue"}]}`,
	`{"fact":"fact_table_revenue","group_by":["s_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"}],"filter":"p_retailprice > 950"}`,
	`{"fact":"fact_table_revenue","roll_up":{"Supplier":"Region"},"measures":[{"out":"avg_bal","func":"AVG","col":"s_acctbal"},{"out":"total","func":"SUM","col":"revenue"}]}`,
}

func TestShardGatherE2EByteIdentity(t *testing.T) {
	const sf = 2
	control := deployedTestPlatform(t, sf)
	controlTS := httptest.NewServer(New(control).Handler())
	t.Cleanup(controlTS.Close)

	shardTS := make([]*httptest.Server, 2)
	shards := make([]*core.Platform, 2)
	urls := make([]string, 2)
	for i := range shardTS {
		shards[i] = shardedTestPlatform(t, sf, shard.Spec{Index: i, Count: 2})
		shardTS[i] = httptest.NewServer(New(shards[i]).Handler())
		t.Cleanup(shardTS[i].Close)
		urls[i] = shardTS[i].URL
	}
	g, err := router.NewShardGather(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	gatherTS := httptest.NewServer(g.Handler())
	t.Cleanup(gatherTS.Close)

	// The mix runs twice: with the shards' aggregate stores cold, every
	// partial folds its rows; then, the stores refreshed from what the
	// first pass asked, the shards answer from their entries.
	client := &http.Client{}
	for _, warm := range []bool{false, true} {
		for i, q := range shardQueryMix {
			_, want := postOLAP(t, client, controlTS.URL, q)
			_, got := postOLAP(t, client, gatherTS.URL, q)
			if got != want {
				t.Fatalf("query %d (warm entries: %v): gathered HTTP body differs from single-node control\nquery: %s\n got: %s\nwant: %s", i, warm, q, got, want)
			}
		}
		for i, p := range shards {
			st := p.MatAgg().Stats()
			if served := st.Hits + st.Rewrites; warm != (served > 0) {
				t.Fatalf("shard %d (warm entries: %v): %d partials served from entries", i, warm, served)
			}
			oe, err := p.OLAP()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.MatAgg().Refresh(oe); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Shard self-verification: each shard finalises its own partial and
	// compares it against its local star-flow reference executor.
	for i, ts := range shardTS {
		body := strings.TrimSuffix(shardQueryMix[0], "}") + `,"oracle":true}`
		resp, err := client.Post(ts.URL+"/api/olap/partial", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d failed self-verification: %d %s", i, resp.StatusCode, b)
		}
	}

	// Shard health reports identity and epoch.
	resp, err := client.Get(shardTS[1].URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		ShardIndex *int   `json:"shard_index"`
		ShardCount int    `json:"shard_count"`
		Epoch      uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.ShardIndex == nil || *health.ShardIndex != 1 || health.ShardCount != 2 {
		t.Fatalf("shard 1 health identity = %+v", health)
	}
	if health.Epoch == 0 {
		t.Fatal("shard health reports no epoch")
	}

	// Kill shard 1: the documented failure mode is a whole-query 502
	// that names the dead shard — never a partial answer.
	shardTS[1].Close()
	failResp, err := client.Post(gatherTS.URL+"/api/olap", "application/json", strings.NewReader(shardQueryMix[0]))
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := io.ReadAll(failResp.Body)
	failResp.Body.Close()
	if failResp.StatusCode != http.StatusBadGateway {
		t.Fatalf("with shard 1 down: status %d (%s), want 502", failResp.StatusCode, fb)
	}
	if !strings.Contains(string(fb), "shard 1") || !strings.Contains(string(fb), "refusing partial answer") {
		t.Fatalf("failure mode not stated: %s", fb)
	}
}

// A diced query through the gather: every shard ships its cells with
// the hidden carat aggregates, the gather cuts the diamond after its
// merge, and the body is byte-identical to the single node's — for a
// COUNT and a SUM carat, on one and two dimensions, and with a shard's
// "oracle" self-verification of its diced partial.
func TestShardGatherDiceByteIdentity(t *testing.T) {
	const sf = 2
	control := httptest.NewServer(New(deployedTestPlatform(t, sf)).Handler())
	t.Cleanup(control.Close)
	urls := make([]string, 2)
	for i := range urls {
		ts := httptest.NewServer(New(shardedTestPlatform(t, sf, shard.Spec{Index: i, Count: 2})).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	g, err := router.NewShardGather(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	gatherTS := httptest.NewServer(g.Handler())
	t.Cleanup(gatherTS.Close)

	client := &http.Client{}
	for _, q := range []string{
		`{"fact":"fact_table_revenue","group_by":["p_brand"],"measures":[{"out":"n","func":"COUNT"}],"dice":{"func":"COUNT","thresholds":{"p_brand":3}}}`,
		`{"fact":"fact_table_revenue","group_by":["p_brand","p_type"],"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"lo","func":"MIN","col":"p_name"}],` +
			`"dice":{"func":"SUM","col":"revenue","thresholds":{"p_brand":40000,"p_type":100000}}}`,
	} {
		_, want := postOLAP(t, client, control.URL, q)
		_, got := postOLAP(t, client, gatherTS.URL, q)
		if got != want {
			t.Fatalf("gathered diced body differs from the single node's\nquery: %s\n got: %s\nwant: %s", q, got, want)
		}
		_, cube := postOLAP(t, client, control.URL, q[:strings.Index(q, `,"dice"`)]+"}")
		if strings.Count(want, "],[") == strings.Count(cube, "],[") || !strings.Contains(want, "],[") {
			t.Fatalf("the diamond cuts nothing or keeps one row: %s\ncube: %s", want, cube)
		}
		resp, err := client.Post(urls[1]+"/api/olap/partial", "application/json", strings.NewReader(strings.TrimSuffix(q, "}")+`,"oracle":true}`))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard 1 failed self-verification of a diced partial: %d %s", resp.StatusCode, b)
		}
	}
}

// A body with bytes after its object is the shard's 400, and the
// gather relays it as it came.
func TestShardGatherRelaysTrailingBytesRejection(t *testing.T) {
	p := shardedTestPlatform(t, 1, shard.Spec{Index: 0, Count: 1})
	ts := httptest.NewServer(New(p).Handler())
	t.Cleanup(ts.Close)
	g, err := router.NewShardGather([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gatherTS := httptest.NewServer(g.Handler())
	t.Cleanup(gatherTS.Close)

	resp, err := http.Post(gatherTS.URL+"/api/olap", "application/json", strings.NewReader(shardQueryMix[0]+`{"fact":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "after top-level value") {
		t.Fatalf("rejection reason missing: %s", b)
	}
}

// A partial carries its class: a shard stamps X-Quarry-Class with the
// partial's source and settles admission on it, as /api/olap does — the
// fast path while its aggregate store is cold, matagg once an entry
// serves the partial.
func TestPartialFromEntryCarriesItsClass(t *testing.T) {
	p := shardedTestPlatform(t, 1, shard.Spec{Index: 0, Count: 1})
	ts := httptest.NewServer(New(p).Handler())
	t.Cleanup(ts.Close)
	ask := func(want string) {
		t.Helper()
		resp, body := postQuery(t, ts.URL, "/api/olap/partial", shardQueryMix[0], "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partial = %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Quarry-Class"); got != want {
			t.Fatalf("X-Quarry-Class %q, want %q", got, want)
		}
	}
	ask("fast")
	oe, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MatAgg().Refresh(oe); err != nil {
		t.Fatal(err)
	}
	ask("matagg")
	st := olapStatsOf(t, ts.URL)
	if st.MatAgg.Hits != 1 || st.Admission.Classes["matagg"].Served != 1 || st.Admission.Classes["fast"].Served != 1 {
		t.Fatalf("one partial served from an entry, one folded: matagg %+v, admission %+v", *st.MatAgg, st.Admission.Classes)
	}
}
