package olap_test

import (
	"strings"
	"testing"

	"quarry/internal/olap"
)

// TestLevelsAndNavigation walks the Supplier hierarchy declared by
// the xMD schema: Supplier → Nation → Region.
func TestLevelsAndNavigation(t *testing.T) {
	p, _ := deployedPlatform(t)
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	levels, err := e.Levels("Supplier")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(levels, ","); got != "Supplier,Nation,Region" {
		t.Fatalf("levels = %v", levels)
	}
	q := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
	}
	// Base → Nation → Region, then the top errors.
	q1, err := e.RollUp(q, "Supplier")
	if err != nil {
		t.Fatal(err)
	}
	if q1.RollUp["Supplier"] != "Nation" {
		t.Fatalf("first roll-up = %v", q1.RollUp)
	}
	q2, err := e.RollUp(q1, "Supplier")
	if err != nil {
		t.Fatal(err)
	}
	if q2.RollUp["Supplier"] != "Region" {
		t.Fatalf("second roll-up = %v", q2.RollUp)
	}
	if _, err := e.RollUp(q2, "Supplier"); err == nil {
		t.Fatal("roll-up past the top succeeded")
	}
	// Navigation does not mutate the input query.
	if len(q.RollUp) != 0 {
		t.Fatalf("input query mutated: %v", q.RollUp)
	}
}

// TestRollUpTotalsConserved: a fully-additive measure must sum to the
// same grand total at every roll-up level.
func TestRollUpTotalsConserved(t *testing.T) {
	p, _ := deployedPlatform(t)
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	var totals []float64
	for _, level := range []string{"Supplier", "Nation", "Region"} {
		res, err := e.Query(olap.CubeQuery{
			Fact:     "fact_table_revenue",
			RollUp:   map[string]string{"Supplier": level},
			Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
		})
		if err != nil {
			t.Fatalf("level %s: %v", level, err)
		}
		var sum float64
		for _, row := range res.Rows {
			f, _ := row[len(row)-1].AsFloat()
			sum += f
		}
		totals = append(totals, sum)
	}
	for i := 1; i < len(totals); i++ {
		if diff := totals[i] - totals[0]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("totals diverge across levels: %v", totals)
		}
	}
}

// TestRollUpErrors: malformed roll-ups are rejected.
func TestRollUpErrors(t *testing.T) {
	p, _ := deployedPlatform(t)
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	base := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
	}
	cases := map[string]map[string]string{
		"unknown dimension": {"Ghost": "Nation"},
		"unknown level":     {"Supplier": "Continent"},
	}
	for name, ru := range cases {
		q := base
		q.RollUp = ru
		if _, err := e.Query(q); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := e.Levels("Ghost"); err == nil {
		t.Error("Levels on unknown dimension succeeded")
	}
}
