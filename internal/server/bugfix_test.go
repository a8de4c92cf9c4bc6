package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quarry/internal/core"
	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// TestOLAPBodyPreservesApostrophes pins the rendering fix: string
// cells are the value's raw content. The old code trimmed apostrophes
// off the SQL-literal form, which also ate legitimate leading and
// trailing apostrophes that are part of the data.
func TestOLAPBodyPreservesApostrophes(t *testing.T) {
	res := &olap.Result{
		Columns: []string{"label", "plain", "n", "x"},
		Rows: [][]expr.Value{
			{expr.Str("'80s rock'"), expr.Str("SPAIN"), expr.Int(7), expr.Float(1.5)},
			{expr.Str("'"), expr.Str(""), expr.Int(-1), expr.Float(0)},
		},
	}
	var body struct{ Rows [][]string }
	if err := json.Unmarshal(olap.AppendBody(nil, res.Columns, res.Rows), &body); err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"'80s rock'", "SPAIN", "7", "1.5"},
		{"'", "", "-1", "0.0"},
	}
	for i, row := range want {
		for j, cell := range row {
			if got := body.Rows[i][j]; got != cell {
				t.Errorf("row %d col %d = %q, want %q", i, j, got, cell)
			}
		}
	}
}

// deployedTestPlatform builds an in-memory platform with IR_revenue
// deployed and run once.
func deployedTestPlatform(t *testing.T, sf float64) *core.Platform {
	return platformWith(t, sf, tpch.RevenueRequirement())
}

// platformWith builds an in-memory platform at sf with reqs deployed
// and run once.
func platformWith(tb testing.TB, sf float64, reqs ...*xrq.Requirement) *core.Platform {
	tb.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		tb.Fatal(err)
	}
	c, err := tpch.Catalog(sf)
	if err != nil {
		tb.Fatal(err)
	}
	db := storage.NewMemDB()
	if _, err := tpch.Generate(db, sf, 42); err != nil {
		tb.Fatal(err)
	}
	p, err := core.New(core.Config{Ontology: o, Mapping: m, Catalog: c, DB: db})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range reqs {
		if _, err := p.AddRequirement(r); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := p.Run(); err != nil {
		tb.Fatal(err)
	}
	return p
}

const revenueOLAPBody = `{"fact":"fact_table_revenue","group_by":["n_name"],` +
	`"measures":[{"out":"total","func":"SUM","col":"revenue"}]}`

func postOLAP(t *testing.T, client *http.Client, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := client.Post(url+"/api/olap", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	readAll(&buf, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /api/olap = %d: %s", resp.StatusCode, buf.String())
	}
	return resp, buf.String()
}

// TestOLAPBodyIsOneObject: a query body is exactly one JSON object,
// white space around it allowed. Bytes after the object — garbage or a
// second object — and a body that is not an object at all are a 400,
// which neither asks the cache nor runs a query.
func TestOLAPBodyIsOneObject(t *testing.T) {
	ts := httptest.NewServer(New(deployedTestPlatform(t, 1)).Handler())
	t.Cleanup(ts.Close)
	_, want := postOLAP(t, ts.Client(), ts.URL, revenueOLAPBody)
	for _, tc := range []struct {
		body   string
		status int
	}{
		{revenueOLAPBody + "garbage", http.StatusBadRequest},
		{revenueOLAPBody + `{"fact":"x"}`, http.StatusBadRequest},
		{revenueOLAPBody + " " + revenueOLAPBody, http.StatusBadRequest},
		{revenueOLAPBody + "\n}", http.StatusBadRequest},
		{revenueOLAPBody + "\x00", http.StatusBadRequest},
		{"null", http.StatusBadRequest},
		{"[" + revenueOLAPBody + "]", http.StatusBadRequest},
		{`"fact"`, http.StatusBadRequest},
		{"  ", http.StatusBadRequest},
		{"", http.StatusBadRequest},
		{" \t\r\n" + revenueOLAPBody + " \t\r\n", http.StatusOK},
	} {
		resp, err := ts.Client().Post(ts.URL+"/api/olap", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		readAll(&buf, resp)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%q: status %d (%s), want %d", tc.body, resp.StatusCode, buf.String(), tc.status)
		} else if tc.status == http.StatusOK && buf.String() != want {
			t.Errorf("%q answered %s, want %s", tc.body, buf.String(), want)
		}
	}
}

// TestOLAPCachePutKeyedByExecutedVersion is the race-shaped
// regression for the result-cache keying bug: an ETL run commits
// between the cache lookup and the query's snapshot, so the query
// executes against a NEWER version than the key computed at request
// time. The Put must be keyed by the version the query actually ran
// against (res.Version) — keying it by the stale request-time version
// files the fresh result where no future lookup can find it.
func TestOLAPCachePutKeyedByExecutedVersion(t *testing.T) {
	p := deployedTestPlatform(t, 1)
	ts := httptest.NewServer(NewWithOptions(p, Options{}).Handler())
	t.Cleanup(ts.Close)

	var fired int32
	testingOLAPBeforeQuery = func() {
		if atomic.CompareAndSwapInt32(&fired, 0, 1) {
			// Commit an ETL run inside the lookup→execute window.
			if _, err := p.Run(); err != nil {
				t.Errorf("mid-flight run: %v", err)
			}
		}
	}
	t.Cleanup(func() { testingOLAPBeforeQuery = nil })

	resp, body1 := postOLAP(t, http.DefaultClient, ts.URL, revenueOLAPBody)
	if got := resp.Header.Get("X-Quarry-Cache"); got != "miss" {
		t.Fatalf("first request cache = %q, want miss", got)
	}
	if atomic.LoadInt32(&fired) != 1 {
		t.Fatal("test seam did not fire")
	}
	// The repeat lookup happens at the post-run version — the version
	// the first query executed against. It must be a HIT: a miss here
	// means the Put was keyed by the stale request-time version.
	resp, body2 := postOLAP(t, http.DefaultClient, ts.URL, revenueOLAPBody)
	if got := resp.Header.Get("X-Quarry-Cache"); got != "hit" {
		t.Fatalf("repeat request cache = %q, want hit: the Put must be keyed by the version the query ran against", got)
	}
	if body1 != body2 {
		t.Fatalf("cached answer differs from computed answer:\n%s\nvs\n%s", body1, body2)
	}
}

// TestOLAPClientDisconnectDuringQueryFreesSlot: a client that
// disconnects after its query acquired a pool slot must have the
// query cancelled — releasing the slot promptly — and must not
// publish a result computed for nobody. The follow-up request proves
// both: it gets the slot (pool capacity is 1) and it is a cache miss.
func TestOLAPClientDisconnectDuringQueryFreesSlot(t *testing.T) {
	p := deployedTestPlatform(t, 1)
	ts := httptest.NewServer(NewWithOptions(p, Options{OLAPConcurrency: 1}).Handler())
	t.Cleanup(ts.Close)

	entered := make(chan struct{})
	release := make(chan struct{})
	var fired int32
	testingOLAPBeforeQuery = func() {
		if atomic.CompareAndSwapInt32(&fired, 0, 1) {
			close(entered)
			<-release
		}
	}
	t.Cleanup(func() { testingOLAPBeforeQuery = nil })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/olap", strings.NewReader(revenueOLAPBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered // the request holds the only query slot
	cancel()  // client walks away
	if err := <-errc; err == nil {
		t.Fatal("expected a client-side cancellation error")
	}
	// Give the server a beat to observe the dropped connection, then
	// let the handler proceed into the (now cancelled) query.
	time.Sleep(100 * time.Millisecond)
	close(release)

	client := &http.Client{Timeout: 30 * time.Second}
	resp, _ := postOLAP(t, client, ts.URL, revenueOLAPBody)
	if got := resp.Header.Get("X-Quarry-Cache"); got != "miss" {
		t.Fatalf("follow-up cache = %q, want miss: the abandoned query must not publish its result", got)
	}
}

// TestOLAPAbandonedClientsStress: a burst of clients with aggressive
// timeouts against a single-slot pool must not wedge the server —
// abandoned queries release their slots at the next cancellation
// checkpoint, so a patient client still gets through promptly.
func TestOLAPAbandonedClientsStress(t *testing.T) {
	p := deployedTestPlatform(t, 1)
	ts := httptest.NewServer(NewWithOptions(p, Options{OLAPConcurrency: 1}).Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/olap", strings.NewReader(revenueOLAPBody))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(ts.URL+"/api/olap", "application/json", strings.NewReader(revenueOLAPBody))
	if err != nil {
		t.Fatalf("patient client after abandoned burst: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patient client = %d", resp.StatusCode)
	}
	var out struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) == 0 {
		t.Fatal("patient client got an empty answer")
	}
}
