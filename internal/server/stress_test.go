package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"quarry/internal/core"
	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// stressServer builds a server over a deployed warehouse with a small
// query pool and cache, returning the server and platform too.
// mataggTopK > 0 enables the materialized-aggregate subsystem.
func stressServer(t *testing.T, opts Options, mataggTopK int) (*httptest.Server, *Server, *core.Platform) {
	t.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(2)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, 2, 42); err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db, MatAggTopK: mataggTopK})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(p, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.refreshes.Wait() // drain background aggregate refreshes
	})
	return ts, srv, p
}

func postJSON(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const stressQuery = `{"fact":"fact_table_revenue","group_by":["p_brand"],` +
	`"roll_up":{"Supplier":"Nation"},` +
	`"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT"}]}`

// TestOLAPUnderConcurrentReloads hammers POST /api/olap from N
// goroutines while POST /api/run reloads the warehouse concurrently —
// with the materialized-aggregate subsystem on, so every reload also
// kicks a background aggregate refresh racing the traffic. The
// generator is deterministic, so a reload rebuilds identical tables:
// every OLAP response must therefore equal the canonical answer — a
// response computed from a half-loaded (torn) fact or dimension table,
// or served from an aggregate or cached build side of a mismatched
// version mid-rebuild, would differ or crash under -race. Run under
// -race this checks the locking discipline of the whole serving path.
func TestOLAPUnderConcurrentReloads(t *testing.T) {
	ts, _, _ := stressServer(t, Options{OLAPConcurrency: 4, OLAPCacheSize: -1}, 4)

	resp, body := postJSON(t, ts.URL+"/api/olap", stressQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("canonical query = %d: %s", resp.StatusCode, body)
	}
	var canonical struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &canonical); err != nil {
		t.Fatal(err)
	}
	if len(canonical.Rows) == 0 {
		t.Fatal("canonical query returned no rows")
	}

	stop := make(chan struct{})
	loadErrs := make(chan string, 1)
	go func() {
		defer close(loadErrs)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, body := postJSON(t, ts.URL+"/api/run", `{}`)
			if resp.StatusCode != http.StatusOK {
				loadErrs <- string(body)
				return
			}
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, body := postJSON(t, ts.URL+"/api/olap", stressQuery)
				if resp.StatusCode != http.StatusOK {
					errs <- string(body)
					return
				}
				var got struct {
					Columns []string   `json:"columns"`
					Rows    [][]string `json:"rows"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					errs <- err.Error()
					return
				}
				if !reflect.DeepEqual(got.Columns, canonical.Columns) || !reflect.DeepEqual(got.Rows, canonical.Rows) {
					errs <- "response diverged from canonical answer (torn snapshot?)"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if msg, ok := <-loadErrs; ok && msg != "" {
		t.Fatalf("concurrent /api/run failed: %s", msg)
	}
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestOLAPCacheInvalidation: repeated queries hit the LRU cache, a
// reload invalidates it, and the post-reload answer is served fresh.
func TestOLAPCacheInvalidation(t *testing.T) {
	ts, _, _ := stressServer(t, Options{OLAPCacheSize: 16}, 0)
	resp1, body1 := postJSON(t, ts.URL+"/api/olap", stressQuery)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first query = %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Quarry-Cache"); got != "miss" {
		t.Fatalf("first query cache header = %q, want miss", got)
	}
	resp2, body2 := postJSON(t, ts.URL+"/api/olap", stressQuery)
	if got := resp2.Header.Get("X-Quarry-Cache"); got != "hit" {
		t.Fatalf("second query cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached response differs from computed response")
	}
	// Reload: the cache must not serve the pre-reload entry.
	if resp, body := postJSON(t, ts.URL+"/api/run", `{}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, body)
	}
	resp3, body3 := postJSON(t, ts.URL+"/api/olap", stressQuery)
	if got := resp3.Header.Get("X-Quarry-Cache"); got != "miss" {
		t.Fatalf("post-reload cache header = %q, want miss", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("post-reload answer differs (deterministic data should reproduce it)")
	}
}

// TestOLAPRollUpAndDiceOverHTTP exercises the new request fields
// end-to-end, including the oracle switch.
func TestOLAPRollUpAndDiceOverHTTP(t *testing.T) {
	ts, _, _ := stressServer(t, Options{}, 0)
	body := `{"fact":"fact_table_revenue",` +
		`"roll_up":{"Supplier":"Region"},` +
		`"measures":[{"out":"total","func":"SUM","col":"revenue"}]}`
	resp, out := postJSON(t, ts.URL+"/api/olap", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("roll-up query = %d: %s", resp.StatusCode, out)
	}
	var rollup struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(out, &rollup); err != nil {
		t.Fatal(err)
	}
	if len(rollup.Columns) == 0 || rollup.Columns[0] != "r_name" {
		t.Fatalf("roll-up columns = %v", rollup.Columns)
	}
	if len(rollup.Rows) != 1 || rollup.Rows[0][0] != "EUROPE" {
		t.Fatalf("roll-up rows = %v", rollup.Rows)
	}
	// The oracle path returns the same body.
	oracleBody := body[:len(body)-1] + `,"oracle":true}`
	respO, outO := postJSON(t, ts.URL+"/api/olap", oracleBody)
	if respO.StatusCode != http.StatusOK {
		t.Fatalf("oracle query = %d: %s", respO.StatusCode, outO)
	}
	var oracle struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(outO, &oracle); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rollup, oracle) {
		t.Fatalf("oracle answer differs: %v vs %v", rollup, oracle)
	}
	// A dice over HTTP.
	diceBody := `{"fact":"fact_table_revenue","group_by":["p_brand"],` +
		`"measures":[{"out":"total","func":"SUM","col":"revenue"}],` +
		`"dice":{"func":"COUNT","thresholds":{"p_brand":2}}}`
	respD, outD := postJSON(t, ts.URL+"/api/olap", diceBody)
	if respD.StatusCode != http.StatusOK {
		t.Fatalf("dice query = %d: %s", respD.StatusCode, outD)
	}
	// Malformed dice → 422.
	badDice := `{"fact":"fact_table_revenue","group_by":["p_brand"],` +
		`"measures":[{"out":"total","func":"SUM","col":"revenue"}],` +
		`"dice":{"func":"MEDIAN","thresholds":{"p_brand":2}}}`
	respB, _ := postJSON(t, ts.URL+"/api/olap", badDice)
	if respB.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad dice = %d, want 422", respB.StatusCode)
	}
}

// olapStats fetches GET /api/olap/stats.
func olapStats(t *testing.T, url string) olapStatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/api/olap/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out olapStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	return out
}

// TestOLAPStaleAggregateNeverServed changes the SOURCE data between
// two warehouse loads, so unlike the deterministic-reload stress test
// the pre-run and post-run answers genuinely differ — a stale
// materialized aggregate (or a stale dimension build side) would
// reproduce the OLD answer and is caught by content, not just by the
// race detector.
func TestOLAPStaleAggregateNeverServed(t *testing.T) {
	// Result cache disabled so every request exercises the aggregate
	// path rather than the LRU.
	ts, _, p := stressServer(t, Options{OLAPCacheSize: -1}, 8)

	// Warm the query log, materialize, and verify the next request is
	// served from an aggregate (visible on the admin surface).
	resp, before := postJSON(t, ts.URL+"/api/olap", stressQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up query = %d: %s", resp.StatusCode, before)
	}
	oe, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MatAgg().Refresh(oe); err != nil {
		t.Fatal(err)
	}
	resp, served := postJSON(t, ts.URL+"/api/olap", stressQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("served query = %d: %s", resp.StatusCode, served)
	}
	if !bytes.Equal(before, served) {
		t.Fatalf("aggregate-served answer differs from computed answer:\n%s\n%s", before, served)
	}
	st := olapStats(t, ts.URL)
	if st.MatAgg == nil || st.MatAgg.Hits == 0 || st.MatAgg.Materialized == 0 {
		t.Fatalf("query was not served from a materialized aggregate: %+v", st.MatAgg)
	}

	// Mutate the source: one more lineitem for the SPAIN supplier
	// (supplier 0 is always SPAIN; part 0 / order 0 / partsupp(0,0)
	// exist at every scale factor), with a price large enough that
	// SUM(revenue) must visibly change after the next load.
	li, ok := p.DB().Table("lineitem")
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
	if resp, body := postJSON(t, ts.URL+"/api/run", `{}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, body)
	}

	// The post-run answer must reflect the new data — whether it comes
	// from the base-fact fallback (refresh still running) or from a
	// re-materialized aggregate at the new version. Serving the old
	// bytes would mean a stale aggregate or build side survived.
	resp, after := postJSON(t, ts.URL+"/api/olap", stressQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload query = %d: %s", resp.StatusCode, after)
	}
	if bytes.Equal(before, after) {
		t.Fatalf("post-reload answer identical to pre-reload answer: stale aggregate served\n%s", after)
	}
	resp, oracle := postJSON(t, ts.URL+"/api/olap", stressQuery[:len(stressQuery)-1]+`,"oracle":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oracle query = %d: %s", resp.StatusCode, oracle)
	}
	if !bytes.Equal(after, oracle) {
		t.Fatalf("post-reload answer diverges from the oracle:\nfast:   %s\noracle: %s", after, oracle)
	}

	// After an explicit refresh at the new version, aggregates serve
	// again — still the new answer.
	if _, err := p.MatAgg().Refresh(oe); err != nil {
		t.Fatal(err)
	}
	hitsBefore := olapStats(t, ts.URL).MatAgg.Hits
	resp, refreshed := postJSON(t, ts.URL+"/api/olap", stressQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refreshed query = %d: %s", resp.StatusCode, refreshed)
	}
	if !bytes.Equal(refreshed, oracle) {
		t.Fatalf("refreshed aggregate answer diverges from the oracle:\n%s\n%s", refreshed, oracle)
	}
	if got := olapStats(t, ts.URL).MatAgg.Hits; got <= hitsBefore {
		t.Fatalf("refreshed aggregate was not served: hits %d → %d", hitsBefore, got)
	}
}

// TestOLAPStatsDimCacheCounts: /api/olap/stats reports the dimension
// cache's hits and misses at the top level whether or not a MatAgg is
// attached, matagg repeats the same two numbers, and they never go
// back when a design change rebuilds the engine.
func TestOLAPStatsDimCacheCounts(t *testing.T) {
	// Nothing refreshes the aggregate store between the asks, so every
	// dice runs the fast path's build phase.
	dice := `{"fact":"fact_table_revenue","group_by":["p_brand"],` +
		`"measures":[{"out":"n","func":"COUNT","col":""}],` +
		`"dice":{"func":"COUNT","thresholds":{"p_brand":1}}}`
	for _, topK := range []int{0, 8} {
		ts, _, p := stressServer(t, Options{OLAPCacheSize: -1}, topK)
		ask := func() olapStatsResponse {
			t.Helper()
			if resp, body := postJSON(t, ts.URL+"/api/olap", dice); resp.StatusCode != http.StatusOK {
				t.Fatalf("topK %d: dice = %d: %s", topK, resp.StatusCode, body)
			}
			st := olapStats(t, ts.URL)
			if (st.MatAgg != nil) != (topK > 0) {
				t.Fatalf("topK %d: matagg block present = %v", topK, st.MatAgg != nil)
			}
			if st.MatAgg != nil && (st.MatAgg.DimCacheHits != st.DimCacheHits || st.MatAgg.DimCacheMisses != st.DimCacheMisses) {
				t.Fatalf("topK %d: matagg reports %d/%d, the top level %d/%d", topK,
					st.MatAgg.DimCacheHits, st.MatAgg.DimCacheMisses, st.DimCacheHits, st.DimCacheMisses)
			}
			return st
		}
		first := ask()
		second := ask()
		if first.DimCacheMisses == 0 || second.DimCacheHits <= first.DimCacheHits || second.DimCacheMisses != first.DimCacheMisses {
			t.Fatalf("topK %d: a repeated query did not hit: %d/%d → %d/%d", topK,
				first.DimCacheHits, first.DimCacheMisses, second.DimCacheHits, second.DimCacheMisses)
		}
		if _, err := p.AddRequirement(tpch.QuantityByMarketRequirement()); err != nil {
			t.Fatal(err)
		}
		rebuilt := olapStats(t, ts.URL)
		if rebuilt.DimCacheHits != second.DimCacheHits || rebuilt.DimCacheMisses != second.DimCacheMisses {
			t.Fatalf("topK %d: the counts moved with the engine rebuild: %d/%d → %d/%d", topK,
				second.DimCacheHits, second.DimCacheMisses, rebuilt.DimCacheHits, rebuilt.DimCacheMisses)
		}
		cold := ask()
		if cold.DimCacheMisses <= second.DimCacheMisses || cold.DimCacheHits != second.DimCacheHits {
			t.Fatalf("topK %d: the rebuilt engine did not start cold: %d/%d → %d/%d", topK,
				second.DimCacheHits, second.DimCacheMisses, cold.DimCacheHits, cold.DimCacheMisses)
		}
	}
}
