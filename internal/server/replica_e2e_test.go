package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"quarry/internal/core"
	"quarry/internal/expr"
	"quarry/internal/replication"
	"quarry/internal/router"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// The replica end-to-end suite: a disk-backed primary serves the
// replication feed, replicas ship its committed segments (over HTTP
// and over a shared directory), replay its requirement designs, and
// must answer every cube query byte-identically to the primary — on
// the fast path and the star-flow oracle, before and after a
// republish that lands while the replica is live.

// replicaGoldenQueries are the golden TPC-H cube queries of
// golden_test.go as /api/olap bodies: every roll-up level of the
// Supplier hierarchy plus a diamond dice.
var replicaGoldenQueries = []string{
	`{"fact":"fact_table_revenue","group_by":["s_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT"}]}`,
	`{"fact":"fact_table_revenue","roll_up":{"Supplier":"Nation"},"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT"}]}`,
	`{"fact":"fact_table_revenue","roll_up":{"Supplier":"Region"},"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT"}]}`,
	`{"fact":"fact_table_revenue","group_by":["p_brand"],"measures":[{"out":"total","func":"SUM","col":"revenue"}],"dice":{"func":"COUNT","thresholds":{"p_brand":4}}}`,
}

// oracleVariant turns an /api/olap body into its star-flow form.
func oracleVariant(q string) string {
	return q[:len(q)-1] + `,"oracle":true}`
}

// testPrimary is a disk-backed primary platform with IR_revenue
// deployed and run once.
type testPrimary struct {
	p   *core.Platform
	db  *storage.DB
	ts  *httptest.Server
	dir string
}

func newTestPrimary(t *testing.T, sf float64) *testPrimary {
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
	dir := t.TempDir()
	db, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpch.Generate(db, sf, 42); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db, MatAggTopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(p, Options{}).Handler())
	t.Cleanup(ts.Close)
	return &testPrimary{p: p, db: db, ts: ts, dir: dir}
}

// testReplica is a read replica of a testPrimary: segments shipped
// into its own directory, designs replayed over HTTP, serving stack
// (snapshots, matagg, result cache) entirely its own.
type testReplica struct {
	p      *core.Platform
	db     *storage.DB
	syncer *replication.Syncer
	srv    *Server
	ts     *httptest.Server
}

// newTestReplica builds a replica of primary. With sharedDir == ""
// the data transport is the primary's HTTP replication endpoints;
// otherwise segments are read straight out of sharedDir (the
// primary's data directory over a shared filesystem).
func newTestReplica(t *testing.T, primary *testPrimary, sharedDir string, sf float64) *testReplica {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var src replication.Source
	if sharedDir != "" {
		src = &replication.DirSource{Dir: sharedDir}
	} else {
		src = &replication.HTTPSource{Base: primary.ts.URL}
	}
	sy, err := replication.NewSyncer(db, src, primary.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sy.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
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
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db, MatAggTopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := replication.FetchRequirements(context.Background(), primary.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range reqs {
		req, err := xrq.Unmarshal(rr.XML)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AddRequirement(req); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewWithOptions(p, Options{ReadOnly: true, ReplicaStatus: sy.Status})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testReplica{p: p, db: db, syncer: sy, srv: srv, ts: ts}
}

// sync runs one replication pass and invalidates the serving caches
// when it adopted a new catalog — what quarryd's tail loop does.
func (r *testReplica) sync(t *testing.T) replication.Report {
	t.Helper()
	rep, err := r.syncer.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed {
		r.srv.WarehouseChanged()
	}
	return rep
}

type replicaHealth struct {
	Role    string `json:"role"`
	Replica *struct {
		Converged      bool   `json:"converged"`
		VersionsBehind uint64 `json:"versions_behind"`
		LocalVersion   uint64 `json:"local_version"`
		LastError      string `json:"last_error"`
	} `json:"replica"`
}

func getHealth(t *testing.T, url string) replicaHealth {
	t.Helper()
	resp, err := http.Get(url + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h replicaHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
	return h
}

// assertIdenticalAnswers runs every golden query — fast path and
// oracle — against the primary and each replica and requires
// byte-identical bodies.
func assertIdenticalAnswers(t *testing.T, primary *testPrimary, replicas ...*testReplica) {
	t.Helper()
	for _, q := range replicaGoldenQueries {
		for _, body := range []string{q, oracleVariant(q)} {
			resp, want := postJSON(t, primary.ts.URL+"/api/olap", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("primary %s = %d: %s", body, resp.StatusCode, want)
			}
			for i, r := range replicas {
				resp, got := postJSON(t, r.ts.URL+"/api/olap", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("replica %d %s = %d: %s", i, body, resp.StatusCode, got)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("replica %d diverges on %s:\nprimary: %s\nreplica: %s", i, body, want, got)
				}
			}
		}
	}
}

// TestReplicaEndToEnd: cold replicas (one per transport) converge,
// serve byte-identical answers over their own stacks, reject writes,
// report their lag — and follow a republish that lands while they are
// live, including the stale window in between.
func TestReplicaEndToEnd(t *testing.T) {
	primary := newTestPrimary(t, 5)
	httpReplica := newTestReplica(t, primary, "", 5)
	dirReplica := newTestReplica(t, primary, primary.dir, 5)

	// Cold replicas converged: byte-identical on every golden query,
	// fast path and oracle, over both transports.
	assertIdenticalAnswers(t, primary, httpReplica, dirReplica)

	// Roles and lag on the health surface.
	if h := getHealth(t, primary.ts.URL); h.Role != "primary" || h.Replica != nil {
		t.Fatalf("primary health = %+v", h)
	}
	for _, r := range []*testReplica{httpReplica, dirReplica} {
		h := getHealth(t, r.ts.URL)
		if h.Role != "replica" || h.Replica == nil {
			t.Fatalf("replica health = %+v", h)
		}
		if !h.Replica.Converged || h.Replica.VersionsBehind != 0 {
			t.Fatalf("replica not converged: %+v", h.Replica)
		}
	}

	// Replicas reject every write.
	revenueXML, err := xrq.Marshal(tpch.RevenueRequirement())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ method, path, body string }{
		{http.MethodPost, "/api/requirements", revenueXML},
		{http.MethodPut, "/api/requirements/IR_revenue", revenueXML},
		{http.MethodDelete, "/api/requirements/IR_revenue", ""},
		{http.MethodPost, "/api/deploy", ""},
		{http.MethodPost, "/api/run", ""},
	} {
		req, err := http.NewRequest(w.method, httpReplica.ts.URL+w.path, strings.NewReader(w.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s on replica = %d, want 403", w.method, w.path, resp.StatusCode)
		}
	}

	// Republish while the replicas are live: one more lineitem for the
	// SPAIN supplier with a price big enough that SUM(revenue) must
	// visibly change (supplier 0 is always SPAIN; part 0 / order 0 /
	// partsupp(0,0) exist at every scale factor).
	q := replicaGoldenQueries[1] // revenue by nation
	_, before := postJSON(t, primary.ts.URL+"/api/olap", q)
	li, ok := primary.db.Table("lineitem")
	if !ok {
		t.Fatal("lineitem source missing")
	}
	if err := li.Insert(storage.Row{
		expr.Int(0), expr.Int(0), expr.Int(0), expr.Int(99),
		expr.Float(1), expr.Float(5e6), expr.Float(0), expr.Float(0),
		expr.Str("N"), expr.Str("1995-06-17"),
	}); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, primary.ts.URL+"/api/run", `{}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("republish = %d: %s", resp.StatusCode, body)
	}
	resp, after := postJSON(t, primary.ts.URL+"/api/olap", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-republish primary query = %d", resp.StatusCode)
	}
	if bytes.Equal(before, after) {
		t.Fatal("republish did not change the primary's answer")
	}

	// Until the next sync pass the replica keeps serving its last
	// committed version — stale, but consistently so.
	if resp, got := postJSON(t, httpReplica.ts.URL+"/api/olap", q); resp.StatusCode != http.StatusOK || !bytes.Equal(got, before) {
		t.Fatalf("pre-sync replica answer changed or failed (%d):\n%s\nwant pre-republish:\n%s", resp.StatusCode, got, before)
	}

	// One tail tick on each replica: fetch the delta, adopt the new
	// catalog, converge again — byte-identical on everything.
	for _, r := range []*testReplica{httpReplica, dirReplica} {
		rep := r.sync(t)
		if !rep.Changed || rep.Segments == 0 {
			t.Fatalf("post-republish sync report = %+v, want fetched segments", rep)
		}
		h := getHealth(t, r.ts.URL)
		if !h.Replica.Converged || h.Replica.VersionsBehind != 0 {
			t.Fatalf("replica not reconverged: %+v", h.Replica)
		}
	}
	assertIdenticalAnswers(t, primary, httpReplica, dirReplica)
}

// TestReplicationEndpoints: the primary's feed — manifest and
// segments — plus its refusal paths (no disk backing, unknown or
// malicious segment names).
func TestReplicationEndpoints(t *testing.T) {
	primary := newTestPrimary(t, 1)
	resp, body := get(t, primary.ts, "/api/replication/manifest", http.StatusOK), []byte(nil)
	_ = body
	var man struct {
		Version  uint64 `json:"version"`
		Segments int    `json:"-"`
	}
	if err := json.Unmarshal(resp, &man); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if man.Version == 0 {
		t.Fatalf("manifest version = 0: %s", resp)
	}
	get(t, primary.ts, "/api/replication/segment/seg-99999999.qseg", http.StatusNotFound)
	get(t, primary.ts, "/api/replication/segment/..%2Fmanifest.json", http.StatusBadRequest)
	get(t, primary.ts, "/api/replication/segment/not-a-segment", http.StatusBadRequest)

	// An in-memory primary has no feed. NewMemDB, not NewDB: this
	// must stay memory-backed even when QUARRY_STORAGE=disk redirects
	// NewDB to a disk store.
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: storage.NewMemDB()})
	if err != nil {
		t.Fatal(err)
	}
	mem := httptest.NewServer(New(p).Handler())
	t.Cleanup(mem.Close)
	get(t, mem, "/api/replication/manifest", http.StatusNotFound)
}

// TestRouterFailoverEndToEnd: a scatter router over two live replicas
// answers byte-identically to the primary, keeps answering when one
// replica is killed mid-fleet, rejects writes, and reports the dead
// backend on its health surface. With the whole fleet down it answers
// 502.
func TestRouterFailoverEndToEnd(t *testing.T) {
	primary := newTestPrimary(t, 3)
	r1 := newTestReplica(t, primary, "", 3)
	r2 := newTestReplica(t, primary, primary.dir, 3)

	rt, err := router.New([]string{r1.ts.URL, r2.ts.URL}, nil, router.Options{BusyRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	q := replicaGoldenQueries[1]
	_, want := postJSON(t, primary.ts.URL+"/api/olap", q)
	// Several rounds so round-robin exercises both backends.
	for i := 0; i < 4; i++ {
		resp, got := postJSON(t, rts.URL+"/api/olap", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed query %d = %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("routed answer %d diverges:\n%s\nwant:\n%s", i, got, want)
		}
	}

	// Kill one replica: every request must still succeed (the router
	// demotes the dead backend and retries on the live one).
	r1.ts.Close()
	for i := 0; i < 4; i++ {
		resp, got := postJSON(t, rts.URL+"/api/olap", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed query %d with a dead replica = %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("failover answer %d diverges:\n%s\nwant:\n%s", i, got, want)
		}
	}

	// The health surface reports the dead backend.
	rt.Probe(context.Background())
	resp, err := http.Get(rts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Replicas []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Replicas) != 2 {
		t.Fatalf("router health = %+v", health)
	}
	alive := 0
	for _, r := range health.Replicas {
		if r.Healthy {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("router health reports %d healthy backends, want 1: %+v", alive, health)
	}

	// Writes don't scatter.
	if resp, _ := postJSON(t, rts.URL+"/api/run", `{}`); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("POST /api/run via router = %d, want 403", resp.StatusCode)
	}

	// Whole fleet down: 502, not a hang.
	r2.ts.Close()
	if resp, _ := postJSON(t, rts.URL+"/api/olap", q); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("routed query with no replicas = %d, want 502", resp.StatusCode)
	}
}
