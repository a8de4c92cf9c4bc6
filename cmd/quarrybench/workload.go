package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
)

// workQuery is one entry of the benchmark mix: a name for reporting
// and the POST /api/olap body it sends.
type workQuery struct {
	Name string
	Body map[string]any
}

// goldenWorkload is the query mix, derived from the golden TPC-H
// cube-query set (internal/olap/golden_test.go) plus lattice
// neighbours of those shapes: per-supplier and rolled-up revenue,
// brand slices, a diamond dice, and a filtered drill. Order matters —
// the Zipf picker makes earlier entries hotter — so the list leads
// with the cheap aggregate shapes a real dashboard hammers and trails
// off into ad-hoc drill-downs.
func goldenWorkload(fact string) []workQuery {
	revenue := []any{
		map[string]any{"out": "total", "func": "SUM", "col": "revenue"},
		map[string]any{"out": "n", "func": "COUNT", "col": ""},
	}
	count := []any{map[string]any{"out": "n", "func": "COUNT", "col": ""}}
	return []workQuery{
		{"revenue_by_nation", map[string]any{
			"fact": fact, "roll_up": map[string]any{"Supplier": "Nation"}, "measures": revenue,
		}},
		{"revenue_by_supplier", map[string]any{
			"fact": fact, "group_by": []any{"s_name"}, "measures": revenue,
		}},
		{"revenue_by_region", map[string]any{
			"fact": fact, "roll_up": map[string]any{"Supplier": "Region"}, "measures": revenue,
		}},
		{"revenue_by_brand", map[string]any{
			"fact": fact, "group_by": []any{"p_brand"}, "measures": revenue,
		}},
		{"count_by_brand", map[string]any{
			"fact": fact, "group_by": []any{"p_brand"}, "measures": count,
		}},
		{"revenue_brand_dice", map[string]any{
			"fact": fact, "group_by": []any{"p_brand"},
			"measures": []any{map[string]any{"out": "total", "func": "SUM", "col": "revenue"}},
			"dice": map[string]any{
				"func": "COUNT", "thresholds": map[string]any{"p_brand": 4},
			},
		}},
		{"supplier_brand_cross", map[string]any{
			"fact": fact, "group_by": []any{"s_name", "p_brand"}, "measures": count,
		}},
		{"filtered_brand_drill", map[string]any{
			"fact": fact, "group_by": []any{"p_name"}, "measures": revenue,
			"filter": "p_brand = 'Brand#12'",
		}},
	}
}

// newPicker returns a deterministic Zipf-distributed index source
// over [0, n): rank 0 is the hottest query. s must be > 1 (the
// rand.Zipf constraint); the generator is seeded, so two runs with
// the same seed issue the same request sequence.
func newPicker(seed int64, s float64, n int) func() int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// serverStats mirrors the fields of GET /api/olap/stats that the
// harness reports on. Decoded loosely: fields the server does not
// send stay zero, so the harness keeps working against older nodes.
type serverStats struct {
	Queries          int64 `json:"queries"`
	Answered         int64 `json:"answered"`
	Shed             int64 `json:"shed"`
	QueryErrors      int64 `json:"query_errors"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	MatAgg           *struct {
		Hits             int64 `json:"hits"`
		Rewrites         int64 `json:"rewrites"`
		Misses           int64 `json:"misses"`
		Materialized     int   `json:"materialized"`
		MaterializedRows int64 `json:"materialized_rows"`
	} `json:"matagg"`
}

func scrapeStats(client *http.Client, target string) (*serverStats, error) {
	resp, err := client.Get(strings.TrimRight(target, "/") + "/api/olap/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET /api/olap/stats: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
