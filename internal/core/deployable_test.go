package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/olap"
	"quarry/internal/repo"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// TestRefusesWhatTheDeployerRefuses: a table has one loader, and each
// pair below would give fact_table_revenue two. IR_gen_000 (revenue by
// Part.p_name) and IR_gen_004 (revenue by Customer.c_mktsegment) write
// different schemas into it; IR_revenue and the same requirement
// sliced to France write the same schema, and a run used to keep
// whichever replace landed last, reporting the other's row count.
// Adding the second of a pair, changing a requirement into it and
// restoring a stored list holding both are refused, naming both
// loaders, and a refusal changes nothing: the stored list, the
// designs, Deploy, Run's Loaded and an OLAP answer stay as they were.
func TestRefusesWhatTheDeployerRefuses(t *testing.T) {
	gen := tpch.GenerateRequirements(8)
	fr := tpch.RevenueRequirement()
	fr.ID = "IR_revenue_fr"
	fr.Slicers[0].Value = "FRANCE"
	for _, c := range []struct {
		name                string
		first, other, clash *xrq.Requirement
	}{
		{"schemas differ", gen[0], gen[1], gen[4]},
		{"same schema", tpch.RevenueRequirement(), tpch.NetProfitRequirement(), fr},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tpchConfig(t, dir)
			cfg.DB = storage.NewMemDB()
			if _, err := tpch.Generate(cfg.DB, 1, 42); err != nil {
				t.Fatal(err)
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*xrq.Requirement{c.first, c.other} {
				if _, err := p.AddRequirement(r); err != nil {
					t.Fatal(err)
				}
			}
			texts := designTexts(t, p)
			stored, err := os.ReadFile(filepath.Join(dir, "requirements.json"))
			if err != nil {
				t.Fatal(err)
			}
			deployed, loaded, answer := outcome(t, p)
			const rule = `both load table "fact_table_revenue"; a table has one loader`
			refused := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), rule) {
					t.Fatalf("%s: %v, want a refusal naming both loaders of fact_table_revenue", what, err)
				}
				if got := designTexts(t, p); !reflect.DeepEqual(got, texts) {
					t.Fatalf("%s: the refusal changed the designs", what)
				}
				if got, _ := os.ReadFile(filepath.Join(dir, "requirements.json")); string(got) != string(stored) {
					t.Fatalf("%s: the refusal rewrote the stored list", what)
				}
				d, l, a := outcome(t, p)
				if d != deployed || !reflect.DeepEqual(l, loaded) || a != answer {
					t.Fatalf("%s: after the refusal Deploy, Run or OLAP differ", what)
				}
			}
			_, err = p.AddRequirement(c.clash)
			refused("add", err)
			changed := c.clash.Clone()
			changed.ID = c.other.ID
			_, err = p.ChangeRequirement(changed)
			refused("change", err)

			// A list an older build stored with both requirements does
			// not restore into a platform that could not deploy it.
			clashing := t.TempDir()
			if err := repo.Write(clashing, []*xrq.Requirement{c.first, c.clash}); err != nil {
				t.Fatal(err)
			}
			if _, err := New(tpchConfig(t, clashing)); err == nil || !strings.Contains(err.Error(), rule) {
				t.Fatalf("restore: %v, want a refusal naming both loaders of fact_table_revenue", err)
			}
		})
	}
}

// outcome deploys p, runs it and asks one cube query, returning the
// DDL, what the run loaded and the answer's rows.
func outcome(t *testing.T, p *Platform) (string, map[string]int64, string) {
	t.Helper()
	dep, err := p.Deploy("dw")
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	loadedHolds(t, res, p.DB())
	oe, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	ans, err := oe.Query(olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_name"},
		Measures: []olap.MeasureSpec{{Out: "t", Func: "SUM", Col: "revenue"}},
	})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	return dep.DDL, res.Loaded, fmt.Sprint(ans.Rows)
}

// loadedHolds fails the test when a loaded table's row count differs
// from what the run says it loaded: a table has one loader, which
// replaces it.
func loadedHolds(t *testing.T, res *engine.Result, db *storage.DB) {
	t.Helper()
	for table, n := range res.Loaded {
		tbl, ok := db.Table(table)
		if !ok {
			t.Fatalf("loaded table %q is not in the database", table)
		}
		if got := tbl.NumRows(); got != n {
			t.Fatalf("the run reports %d rows loaded into %q and the table holds %d", n, table, got)
		}
	}
}
