package debugsrv

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerServesPprofOnly(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	for path, want := range map[string]int{
		"/debug/pprof/":             http.StatusOK,
		"/debug/pprof/heap?debug=1": http.StatusOK,
		"/debug/pprof/cmdline":      http.StatusOK,
		"/api/health":               http.StatusNotFound,
		"/":                         http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		if path == "/debug/pprof/heap?debug=1" && !strings.Contains(string(body), "heap profile") {
			t.Errorf("GET %s is not a heap profile: %.80s", path, body)
		}
	}
}
