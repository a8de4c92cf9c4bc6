package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"quarry/internal/tpch"
)

// olapBodySeeds are request bodies from the server tests and the
// benchmark's workload shapes (scan_group, scan_filter, star_wide,
// star_filter, dice, and the dashboard's golden roll-ups and equality
// and threshold families), copied in as literals, plus malformed ones.
var olapBodySeeds = []string{
	revenueOLAPBody,
	`{"fact":"fact_table_revenue","group_by":["r_name"],"measures":[{"out":"avg_rev","func":"AVG","col":"revenue"},{"out":"n","func":"COUNT"}]}`,
	`{"fact":"fact_table_revenue","group_by":["p_brand"],"measures":[{"out":"min_type","func":"MIN","col":"p_type"},{"out":"max_type","func":"MAX","col":"p_type"},{"out":"total","func":"SUM","col":"revenue"}]}`,
	`{"fact":"fact_table_revenue","group_by":["s_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"}],"filter":"p_retailprice > 950"}`,
	`{"fact":"fact_table_revenue","roll_up":{"Supplier":"Region"},"measures":[{"out":"avg_bal","func":"AVG","col":"s_acctbal"},{"out":"total","func":"SUM","col":"revenue"}]}`,
	`{"fact":"fact_table_revenue","group_by":["n_name"],"measures":[{"out":"n","func":"COUNT"}],"dice":{"func":"COUNT","thresholds":{"n_name":2}}}`,
	`{"fact":"fact_table_quantity","group_by":["c_mktsegment","o_orderpriority"],"measures":[{"out":"total","func":"SUM","col":"quantity"},{"out":"n","func":"COUNT","col":""}]}`,
	`{"fact":"fact_table_quantity","group_by":["c_mktsegment","o_orderpriority"],"measures":[{"out":"total","func":"SUM","col":"quantity"},{"out":"n","func":"COUNT","col":""}],"filter":"c_mktsegment = 'BUILDING' AND quantity > 20"}`,
	`{"fact":"fact_table_revenue","group_by":["s_name","p_brand"],"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT","col":""}]}`,
	`{"fact":"fact_table_revenue","group_by":["p_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT","col":""}],"filter":"p_brand = 'Brand#23'"}`,
	`{"fact":"fact_table_revenue","group_by":["p_brand","s_name"],"measures":[{"out":"n","func":"COUNT","col":""}],"dice":{"func":"COUNT","thresholds":{"p_brand":3,"s_name":4}}}`,
	`{"fact":"fact_table_revenue","measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT","col":""}],"roll_up":{"Supplier":"Nation"}}`,
	`{"fact":"fact_table_revenue","group_by":["s_name","p_type"],"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT","col":""}],"filter":"p_brand = 'Brand#14'"}`,
	`{"fact":"fact_table_revenue","group_by":["p_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT","col":""}],"filter":"p_type = 'PROMO'"}`,
	`{"fact":"fact_table_revenue","group_by":["s_name"],"measures":[{"out":"total","func":"SUM","col":"revenue"},{"out":"n","func":"COUNT","col":""}],"filter":"p_brand = 'Brand#31' AND p_type = 'STANDARD'"}`,
	`{"fact":"fact_table_quantity","group_by":["o_orderpriority"],"measures":[{"out":"total","func":"SUM","col":"quantity"},{"out":"n","func":"COUNT","col":""}],"filter":"c_mktsegment = 'MACHINERY'"}`,
	`{"fact":"fact_table_quantity","group_by":["c_mktsegment"],"measures":[{"out":"total","func":"SUM","col":"quantity"},{"out":"n","func":"COUNT","col":""}],"filter":"o_orderpriority = '4-NOT SPECIFIED'"}`,
	`{"fact":"fact_table_quantity","group_by":["c_mktsegment","o_orderpriority"],"measures":[{"out":"total","func":"SUM","col":"quantity"},{"out":"n","func":"COUNT","col":""}],"filter":"quantity > 7"}`,
	revenueOLAPBody + `{"fact":"x"}`,
	revenueOLAPBody + "garbage",
	`null`,
	`not json`,
	``,
}

// FuzzOLAPBody posts the fuzzer's bytes to /api/olap of a warehouse
// holding the canonical requirements. No body panics or gets a 5xx; a
// body that is not one JSON object gets a 400; and a body that is
// answered is answered byte for byte as its "oracle": true form is, by
// the star-flow reference executor.
func FuzzOLAPBody(f *testing.F) {
	for _, s := range olapBodySeeds {
		f.Add([]byte(s))
	}
	h := New(platformWith(f, 1, tpch.CanonicalRequirements()...)).Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/olap", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got := post(body)
		if got.Code >= 500 {
			t.Fatalf("%q: status %d: %s", body, got.Code, got.Body)
		}
		lead := bytes.TrimLeft(body, " \t\r\n")
		if object := json.Valid(body) && lead[0] == '{'; !object {
			if got.Code != http.StatusBadRequest {
				t.Fatalf("%q is not one JSON object and got %d: %s", body, got.Code, got.Body)
			}
			return
		}
		if got.Code != http.StatusOK {
			return
		}
		var req olapRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%q was answered but does not decode: %v", body, err)
		}
		req.Oracle = true
		oracleBody, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		want := post(oracleBody)
		if want.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%q answered\n%s\nits oracle form %d\n%s", body, got.Body, want.Code, want.Body)
		}
	})
}
