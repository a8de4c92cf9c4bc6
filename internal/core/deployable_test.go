package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"quarry/internal/olap"
	"quarry/internal/repo"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// TestRefusesWhatTheDeployerRefuses: IR_gen_000 (revenue by
// Part.p_name) and IR_gen_004 (revenue by Customer.c_mktsegment) each
// satisfy their own requirement, but their loaders of
// fact_table_revenue write different schemas, so Deploy refuses the
// unified design and a run lets one loader overwrite the other. Adding
// the second, changing a requirement into it and restoring a stored
// list holding both are refused, and a refusal changes nothing: the
// stored list, the designs, Deploy, Run and OLAP stay as they were.
func TestRefusesWhatTheDeployerRefuses(t *testing.T) {
	gen := tpch.GenerateRequirements(8)
	first, other, clash := gen[0], gen[1], gen[4]
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
	for _, r := range []int{0, 1} {
		if _, err := p.AddRequirement(gen[r]); err != nil {
			t.Fatal(err)
		}
	}
	texts := designTexts(t, p)
	stored, err := os.ReadFile(filepath.Join(dir, "requirements.json"))
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "loaders disagree on schema") {
			t.Fatalf("%s: %v, want a refusal naming the loaders' schemas", what, err)
		}
		if got := designTexts(t, p); !reflect.DeepEqual(got, texts) {
			t.Fatalf("%s: the refusal changed the designs", what)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, "requirements.json")); string(got) != string(stored) {
			t.Fatalf("%s: the refusal rewrote the stored list", what)
		}
	}
	_, err = p.AddRequirement(clash)
	refused("add", err)
	changed := clash.Clone()
	changed.ID = other.ID
	_, err = p.ChangeRequirement(changed)
	refused("change", err)

	if _, err := p.Deploy("dw"); err != nil {
		t.Fatalf("deploy after the refusals: %v", err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	fact, _ := cfg.DB.Table("fact_table_revenue")
	if got := fact.NumRows(); got != res.Loaded["fact_table_revenue"] {
		t.Errorf("the run reports %d fact rows loaded and the table holds %d", res.Loaded["fact_table_revenue"], got)
	}
	oe, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oe.Query(olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_name"},
		Measures: []olap.MeasureSpec{{Out: "t", Func: "SUM", Col: "revenue"}},
	}); err != nil {
		t.Fatalf("query after the refusals: %v", err)
	}

	// A list an older build stored with both requirements does not
	// restore into a platform that could not deploy it.
	clashing := t.TempDir()
	if err := repo.Write(clashing, []*xrq.Requirement{first, clash}); err != nil {
		t.Fatal(err)
	}
	_, err = New(tpchConfig(t, clashing))
	if err == nil || !strings.Contains(err.Error(), "loaders disagree on schema") {
		t.Fatalf("restore: %v, want a refusal naming the loaders' schemas", err)
	}
}
