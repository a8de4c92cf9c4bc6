package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quarry/internal/core"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// New wires the routes with default options.
func New(p *core.Platform) *Server { return NewWithOptions(p, Options{}) }

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	return newStoreServer(t, "")
}

// newStoreServer is newTestServer with its requirement list stored in
// dir.
func newStoreServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
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
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, 1, 42); err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := readAll(&buf, resp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, wantStatus, buf.String())
	}
	return []byte(buf.String())
}

func readAll(buf *strings.Builder, resp *http.Response) (int64, error) {
	b := make([]byte, 64<<10)
	var total int64
	for {
		n, err := resp.Body.Read(b)
		buf.Write(b[:n])
		total += int64(n)
		if err != nil {
			if err.Error() == "EOF" {
				return total, nil
			}
			return total, nil
		}
	}
}

func postXML(t *testing.T, ts *httptest.Server, path, body string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	readAll(&buf, resp)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d: %s", path, resp.StatusCode, wantStatus, buf.String())
	}
	return []byte(buf.String())
}

func TestHealthAndExploration(t *testing.T) {
	ts := newTestServer(t)
	get(t, ts, "/api/health", http.StatusOK)

	var graph struct {
		Nodes []struct{ ID string }     `json:"nodes"`
		Links []struct{ Source string } `json:"links"`
	}
	if err := json.Unmarshal(get(t, ts, "/api/ontology/graph", http.StatusOK), &graph); err != nil {
		t.Fatal(err)
	}
	if len(graph.Nodes) != 8 || len(graph.Links) != 8 {
		t.Errorf("graph = %d nodes %d links", len(graph.Nodes), len(graph.Links))
	}

	var hits []string
	if err := json.Unmarshal(get(t, ts, "/api/ontology/search?q=name", http.StatusOK), &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("no search hits")
	}
	get(t, ts, "/api/ontology/search", http.StatusBadRequest)

	var foci []struct{ Concept string }
	if err := json.Unmarshal(get(t, ts, "/api/elicitor/foci", http.StatusOK), &foci); err != nil {
		t.Fatal(err)
	}
	if foci[0].Concept != "Lineitem" {
		t.Errorf("top focus = %v", foci[0])
	}

	var sg struct {
		Dimensions []struct{ Concept string }
	}
	if err := json.Unmarshal(get(t, ts, "/api/elicitor/suggest?focus=Lineitem", http.StatusOK), &sg); err != nil {
		t.Fatal(err)
	}
	if len(sg.Dimensions) == 0 {
		t.Error("no dimension suggestions")
	}
	get(t, ts, "/api/elicitor/suggest?focus=Ghost", http.StatusNotFound)
	get(t, ts, "/api/elicitor/suggest", http.StatusBadRequest)
}

// TestHealthReportsDiskFootprint: against a disk-backed warehouse,
// /api/health exposes per-table segment counts and bytes plus the
// totals — the compaction and compression observability surface.
func TestHealthReportsDiskFootprint(t *testing.T) {
	o, _ := tpch.Ontology()
	m, _ := tpch.Mapping()
	c, _ := tpch.Catalog(1)
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpch.Generate(db, 1, 42); err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p).Handler())
	t.Cleanup(ts.Close)

	var health struct {
		Storage      string `json:"storage"`
		DiskSegments int64  `json:"disk_segments"`
		DiskBytes    int64  `json:"disk_bytes"`
		DiskTables   map[string]struct {
			Segments int64 `json:"segments"`
			Bytes    int64 `json:"bytes"`
		} `json:"disk_tables"`
	}
	if err := json.Unmarshal(get(t, ts, "/api/health", http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if health.Storage != "disk" {
		t.Fatalf("storage = %q, want disk", health.Storage)
	}
	if health.DiskSegments <= 0 || health.DiskBytes <= 0 {
		t.Fatalf("disk totals empty: %d segments, %d bytes", health.DiskSegments, health.DiskBytes)
	}
	fact, ok := health.DiskTables["fact_table_revenue"]
	if !ok {
		t.Fatal("disk_tables lacks fact_table_revenue")
	}
	if fact.Segments <= 0 || fact.Bytes <= 0 {
		t.Fatalf("fact table stats empty: %+v", fact)
	}
}

func TestRequirementLifecycleOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	revenueXML, err := xrq.Marshal(tpch.RevenueRequirement())
	if err != nil {
		t.Fatal(err)
	}

	// No designs yet.
	get(t, ts, "/api/design/md", http.StatusNotFound)

	// Add.
	body := postXML(t, ts, "/api/requirements", revenueXML, http.StatusCreated)
	var change struct {
		RequirementID string `json:"requirement_id"`
		ETLAdded      int    `json:"etl_added"`
	}
	if err := json.Unmarshal(body, &change); err != nil {
		t.Fatal(err)
	}
	if change.RequirementID != "IR_revenue" || change.ETLAdded == 0 {
		t.Errorf("change = %+v", change)
	}

	// Duplicate → 409.
	postXML(t, ts, "/api/requirements", revenueXML, http.StatusConflict)

	// Malformed body → 400.
	postXML(t, ts, "/api/requirements", "not xml", http.StatusBadRequest)

	// Invalid requirement → 422.
	bad := &xrq.Requirement{
		ID:         "IR_bad",
		Dimensions: []xrq.Dimension{{Concept: "Lineitem.l_returnflag"}},
		Measures:   []xrq.Measure{{ID: "m", Function: "Orders.o_totalprice"}},
	}
	badXML, _ := xrq.Marshal(bad)
	postXML(t, ts, "/api/requirements", badXML, http.StatusUnprocessableEntity)

	// List.
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(get(t, ts, "/api/requirements", http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "IR_revenue" {
		t.Errorf("list = %v", list)
	}

	// Fetch back as xRQ.
	xml := string(get(t, ts, "/api/requirements/IR_revenue", http.StatusOK))
	if !strings.Contains(xml, `<cube id="IR_revenue"`) {
		t.Errorf("xRQ = %s", xml)
	}
	get(t, ts, "/api/requirements/ghost", http.StatusNotFound)

	// Unified designs as XML.
	md := string(get(t, ts, "/api/design/md", http.StatusOK))
	if !strings.Contains(md, "<MDschema") || !strings.Contains(md, "fact_table_revenue") {
		t.Errorf("md = %s", md)
	}
	etl := string(get(t, ts, "/api/design/etl", http.StatusOK))
	if !strings.Contains(etl, "<design") {
		t.Errorf("etl = %s", etl)
	}
	get(t, ts, "/api/design/md/partial/IR_revenue", http.StatusOK)
	get(t, ts, "/api/design/etl/partial/IR_revenue", http.StatusOK)
	get(t, ts, "/api/design/md/partial/ghost", http.StatusNotFound)

	// Quality factors.
	var q struct {
		Cost        float64 `json:"etl_estimated_cost"`
		Satisfiable bool    `json:"satisfiable"`
	}
	if err := json.Unmarshal(get(t, ts, "/api/quality", http.StatusOK), &q); err != nil {
		t.Fatal(err)
	}
	if q.Cost <= 0 || !q.Satisfiable {
		t.Errorf("quality = %+v", q)
	}

	// Deploy.
	dep := postXML(t, ts, "/api/deploy?database=demo", "", http.StatusOK)
	var depBody struct {
		DDL string `json:"DDL"`
		PDI string `json:"PDI"`
	}
	if err := json.Unmarshal(dep, &depBody); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(depBody.DDL, "CREATE TABLE") || !strings.Contains(depBody.PDI, "<transformation>") {
		t.Error("deployment artifacts missing")
	}

	// Run.
	run := postXML(t, ts, "/api/run", "", http.StatusOK)
	var runBody struct {
		Loaded        map[string]int64 `json:"loaded"`
		RowsProcessed int64            `json:"rows_processed"`
		Operations    int              `json:"operations"`
		Detail        []struct {
			Node    string  `json:"node"`
			Type    string  `json:"type"`
			RowsIn  int64   `json:"rows_in"`
			RowsOut int64   `json:"rows_out"`
			BusyMs  float64 `json:"busy_ms"`
		} `json:"operations_detail"`
	}
	if err := json.Unmarshal(run, &runBody); err != nil {
		t.Fatal(err)
	}
	if runBody.Loaded["fact_table_revenue"] == 0 {
		t.Errorf("run = %+v", runBody)
	}
	// The operator detail accounts for every operation and every row.
	var rowsOut int64
	for _, op := range runBody.Detail {
		if op.Node == "" || op.Type == "" || op.BusyMs < 0 {
			t.Errorf("operation detail %+v", op)
		}
		rowsOut += op.RowsOut
	}
	if len(runBody.Detail) != runBody.Operations || rowsOut != runBody.RowsProcessed {
		t.Errorf("%d operations detailed with %d rows out, run reports %d operations and %d rows",
			len(runBody.Detail), rowsOut, runBody.Operations, runBody.RowsProcessed)
	}

	// Run first, then ask an OLAP question over the deployed DW.
	postXML(t, ts, "/api/run", "", http.StatusOK)
	olapBody := `{"fact":"fact_table_revenue","group_by":["n_name"],` +
		`"measures":[{"out":"total","func":"SUM","col":"revenue"}]}`
	resp2, err := http.Post(ts.URL+"/api/olap", "application/json", strings.NewReader(olapBody))
	if err != nil {
		t.Fatal(err)
	}
	var olapOut struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("POST /api/olap = %d", resp2.StatusCode)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&olapOut); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(olapOut.Rows) != 1 || olapOut.Rows[0][0] != "SPAIN" {
		t.Errorf("olap rows = %v", olapOut.Rows)
	}
	// Malformed OLAP bodies.
	resp3, _ := http.Post(ts.URL+"/api/olap", "application/json", strings.NewReader("not json"))
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad olap body = %d", resp3.StatusCode)
	}
	resp3.Body.Close()

	// Export notations.
	sql := string(get(t, ts, "/api/export/sql", http.StatusOK))
	if !strings.Contains(sql, "INSERT INTO") {
		t.Error("SQL export malformed")
	}
	pig := string(get(t, ts, "/api/export/pig", http.StatusOK))
	if !strings.Contains(pig, "STORE") {
		t.Error("Pig export malformed")
	}
	get(t, ts, "/api/export/cobol", http.StatusNotFound)

	// Change (PUT) with mismatched id → 400.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/api/requirements/other", strings.NewReader(revenueXML))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT mismatch = %d", resp.StatusCode)
	}

	// Change slicer to France.
	changed := tpch.RevenueRequirement()
	changed.Slicers[0].Value = "FRANCE"
	changedXML, _ := xrq.Marshal(changed)
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/api/requirements/IR_revenue", strings.NewReader(changedXML))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("PUT = %d", resp.StatusCode)
	}
	etl2 := string(get(t, ts, "/api/design/etl", http.StatusOK))
	if !strings.Contains(etl2, "FRANCE") {
		t.Error("change not reflected in unified ETL")
	}

	// Delete.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/requirements/IR_revenue", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE = %d", resp.StatusCode)
	}
	var empty []any
	if err := json.Unmarshal(get(t, ts, "/api/requirements", http.StatusOK), &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("requirements after delete = %v", empty)
	}
}

// TestLifecycleWriteFailureIs500: an add, change or removal the server
// could not write to its store directory answers 500 and is not applied,
// so the same request succeeds once the write can.
func TestLifecycleWriteFailureIs500(t *testing.T) {
	dir := t.TempDir()
	ts := newStoreServer(t, dir)
	xml := func(r *xrq.Requirement) string {
		text, err := xrq.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	postXML(t, ts, "/api/requirements", xml(tpch.RevenueRequirement()), http.StatusCreated)
	changed := tpch.RevenueRequirement()
	changed.Slicers[0].Value = "FRANCE"
	// A directory where the temporary file goes makes every write fail.
	block := filepath.Join(dir, "requirements.json.tmp")
	for _, c := range []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPost, "/api/requirements", xml(tpch.NetProfitRequirement()), http.StatusCreated},
		{http.MethodPut, "/api/requirements/IR_revenue", xml(changed), http.StatusOK},
		{http.MethodDelete, "/api/requirements/IR_netprofit", "", http.StatusOK},
	} {
		send := func() int {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		if err := os.Mkdir(block, 0o755); err != nil {
			t.Fatal(err)
		}
		if got := send(); got != http.StatusInternalServerError {
			t.Errorf("%s %s over a blocked write = %d, want 500", c.method, c.path, got)
		}
		if err := os.Remove(block); err != nil {
			t.Fatal(err)
		}
		if got := send(); got != c.status {
			t.Errorf("%s %s retried = %d, want %d", c.method, c.path, got, c.status)
		}
	}
}

// TestUndeployableRequirementIs422: a requirement whose integration
// would give a table a second loader is a 422 that stores nothing, on
// add and on change — IR_gen_004 after IR_gen_000 (two loaders of
// fact_table_revenue with different schemas) and IR_revenue sliced to
// France after IR_revenue (the same schema). The list, the stored file,
// the run and the OLAP answer stay those of before the request.
func TestUndeployableRequirementIs422(t *testing.T) {
	gen := tpch.GenerateRequirements(8)
	fr := tpch.RevenueRequirement()
	fr.ID = "IR_revenue_fr"
	fr.Slicers[0].Value = "FRANCE"
	xml := func(r *xrq.Requirement) string {
		text, err := xrq.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	const query = `{"fact":"fact_table_revenue","group_by":["p_name"],"measures":[{"out":"t","func":"SUM","col":"revenue"}]}`
	for _, c := range []struct {
		name         string
		first, clash *xrq.Requirement
	}{
		{"schemas differ", gen[0], gen[4]},
		{"same schema", tpch.RevenueRequirement(), fr},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ts := newStoreServer(t, dir)
			postXML(t, ts, "/api/requirements", xml(c.first), http.StatusCreated)
			postXML(t, ts, "/api/requirements", xml(tpch.SupplyCostRequirement()), http.StatusCreated)
			list := get(t, ts, "/api/requirements", http.StatusOK)
			stored, err := os.ReadFile(filepath.Join(dir, "requirements.json"))
			if err != nil {
				t.Fatal(err)
			}
			run := postXML(t, ts, "/api/run", "", http.StatusOK)
			_, answer := postJSON(t, ts.URL+"/api/olap", query)
			changed := c.clash.Clone()
			changed.ID = tpch.SupplyCostRequirement().ID
			for _, req := range []struct{ method, path, body string }{
				{http.MethodPost, "/api/requirements", xml(c.clash)},
				{http.MethodPut, "/api/requirements/" + changed.ID, xml(changed)},
			} {
				r, err := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(req.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(r)
				if err != nil {
					t.Fatal(err)
				}
				var body strings.Builder
				readAll(&body, resp)
				resp.Body.Close()
				if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(body.String(), `both load table \"fact_table_revenue\"`) {
					t.Errorf("%s %s = %d %s, want a 422 naming both loaders", req.method, req.path, resp.StatusCode, body.String())
				}
				if got := get(t, ts, "/api/requirements", http.StatusOK); string(got) != string(list) {
					t.Errorf("%s: requirements after the refusal = %s, want %s", req.method, got, list)
				}
				if got, _ := os.ReadFile(filepath.Join(dir, "requirements.json")); string(got) != string(stored) {
					t.Errorf("%s: the refusal rewrote the stored list", req.method)
				}
				if got := postXML(t, ts, "/api/run", "", http.StatusOK); loadedOf(t, got) != loadedOf(t, run) {
					t.Errorf("%s: the run after the refusal loaded %s, want %s", req.method, got, run)
				}
				if resp, got := postJSON(t, ts.URL+"/api/olap", query); resp.StatusCode != http.StatusOK || string(got) != string(answer) {
					t.Errorf("%s: OLAP after the refusal = %d: %s, want %s", req.method, resp.StatusCode, got, answer)
				}
			}
		})
	}
}

// loadedOf is the "loaded" member of a /api/run answer, as JSON.
func loadedOf(t *testing.T, run []byte) string {
	t.Helper()
	var body struct {
		Loaded json.RawMessage `json:"loaded"`
	}
	if err := json.Unmarshal(run, &body); err != nil || body.Loaded == nil {
		t.Fatalf("run answer %s: %v", run, err)
	}
	return string(body.Loaded)
}
