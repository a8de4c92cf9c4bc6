package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestOLAPCacheKeyedByRequestBytes: the result cache is keyed by the
// request's own bytes and holds the encoded answer. A hit writes the
// miss's bytes with the miss's headers; a body spelled differently
// (white space, key order, case-folded field names) is its own entry —
// a miss, then hits — and answers the same bytes; the deadline header
// is judged before the cache is asked; and a body refused for trailing
// bytes is refused again on every resend, never a hit and never an
// entry.
func TestOLAPCacheKeyedByRequestBytes(t *testing.T) {
	ts := httptest.NewServer(New(deployedTestPlatform(t, 1)).Handler())
	t.Cleanup(ts.Close)
	first, want := postOLAP(t, ts.Client(), ts.URL, revenueOLAPBody)
	if got := first.Header.Get("X-Quarry-Cache"); got != "miss" {
		t.Fatalf("first request cache = %q, want miss", got)
	}
	for _, body := range []string{
		revenueOLAPBody,
		" \t\r\n" + revenueOLAPBody + "\n",
		`{"measures":[{"out":"total","func":"SUM","col":"revenue"}],"group_by":["n_name"],"fact":"fact_table_revenue"}`,
		`{"Fact":"fact_table_revenue","GROUP_BY":["n_name"],"Measures":[{"Out":"total","FUNC":"SUM","col":"revenue"}]}`,
	} {
		for _, state := range []string{"miss", "hit"} {
			if body == revenueOLAPBody && state == "miss" {
				continue // the first request above
			}
			resp, got := postOLAP(t, ts.Client(), ts.URL, body)
			if c := resp.Header.Get("X-Quarry-Cache"); c != state {
				t.Fatalf("%q: cache %q, want %s", body, c, state)
			}
			if got != want {
				t.Fatalf("%q (%s) answered\n%s\nwant\n%s", body, state, got, want)
			}
			for _, h := range []string{"Content-Type", "X-Quarry-Version"} {
				if resp.Header.Get(h) != first.Header.Get(h) {
					t.Fatalf("%q (%s): %s %q, the miss had %q", body, state, h, resp.Header.Get(h), first.Header.Get(h))
				}
			}
			if class := resp.Header.Get("X-Quarry-Class"); state == "hit" && class != "cache_hit" {
				t.Fatalf("%q: a hit's class is %q", body, class)
			}
		}
	}
	before := olapStatsOf(t, ts.URL)
	if resp, raw := postQuery(t, ts.URL, "/api/olap", revenueOLAPBody, "banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a cached body with a malformed deadline = %d (%s), want 400", resp.StatusCode, raw)
	}
	for _, bad := range []string{revenueOLAPBody + "garbage", revenueOLAPBody + `{"fact":"x"}`} {
		for try := 0; try < 2; try++ {
			resp, raw := postQuery(t, ts.URL, "/api/olap", bad, "")
			if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("X-Quarry-Cache") != "" {
				t.Fatalf("%q, try %d = %d, cache %q (%s); want a 400 without a cache verdict",
					bad, try, resp.StatusCode, resp.Header.Get("X-Quarry-Cache"), raw)
			}
		}
	}
	after := olapStatsOf(t, ts.URL)
	if after.CacheHits != before.CacheHits || after.CacheEntries != before.CacheEntries || after.QueryErrors != before.QueryErrors+5 {
		t.Fatalf("five refusals moved the cache: before %+v, after %+v", before, after)
	}
}

// TestOLAPDisabledCacheIsNeverAsked: with the result cache off no
// answer carries a cache verdict and the stats read zero.
func TestOLAPDisabledCacheIsNeverAsked(t *testing.T) {
	ts := httptest.NewServer(NewWithOptions(deployedTestPlatform(t, 1), Options{OLAPCacheSize: -1}).Handler())
	t.Cleanup(ts.Close)
	_, want := postOLAP(t, ts.Client(), ts.URL, revenueOLAPBody)
	resp, got := postOLAP(t, ts.Client(), ts.URL, revenueOLAPBody)
	if c := resp.Header.Get("X-Quarry-Cache"); c != "" || got != want {
		t.Fatalf("repeat with the cache off: cache %q, same answer %v", c, got == want)
	}
	if st := olapStatsOf(t, ts.URL); st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 || st.Answered != 2 {
		t.Fatalf("stats with the cache off: %+v", st)
	}
}
