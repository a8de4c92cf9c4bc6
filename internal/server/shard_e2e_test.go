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
// the control, partition-filtered load).
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
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db, Shard: spec})
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
	urls := make([]string, 2)
	for i := range shardTS {
		p := shardedTestPlatform(t, sf, shard.Spec{Index: i, Count: 2})
		shardTS[i] = httptest.NewServer(New(p).Handler())
		t.Cleanup(shardTS[i].Close)
		urls[i] = shardTS[i].URL
	}
	g, err := router.NewShardGather(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	gatherTS := httptest.NewServer(g.Handler())
	t.Cleanup(gatherTS.Close)

	client := &http.Client{}
	for i, q := range shardQueryMix {
		_, want := postOLAP(t, client, controlTS.URL, q)
		_, got := postOLAP(t, client, gatherTS.URL, q)
		if got != want {
			t.Fatalf("query %d: gathered HTTP body differs from single-node control\nquery: %s\n got: %s\nwant: %s", i, q, got, want)
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

// A diced query through the gather is refused by the shards (not
// distributive) and the rejection is forwarded verbatim.
func TestShardGatherForwardsDiceRejection(t *testing.T) {
	p := shardedTestPlatform(t, 1, shard.Spec{Index: 0, Count: 1})
	ts := httptest.NewServer(New(p).Handler())
	t.Cleanup(ts.Close)
	g, err := router.NewShardGather([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gatherTS := httptest.NewServer(g.Handler())
	t.Cleanup(gatherTS.Close)

	body := `{"fact":"fact_table_revenue","group_by":["n_name"],` +
		`"measures":[{"out":"n","func":"COUNT"}],` +
		`"dice":{"func":"COUNT","thresholds":{"n_name":2}}}`
	resp, err := http.Post(gatherTS.URL+"/api/olap", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%s), want 422", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "not distributive") {
		t.Fatalf("rejection reason missing: %s", b)
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
