package quarry_test

import (
	"strings"
	"testing"

	"quarry"
	"quarry/internal/xrq"
)

// TestPublicQuickstart exercises the README quickstart through the
// public API only.
func TestPublicQuickstart(t *testing.T) {
	p, db, err := quarry.NewTPCHPlatform(2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRequirement(quarry.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	dep, err := p.Deploy("demo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dep.DDL, "CREATE TABLE") {
		t.Error("no DDL")
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded["fact_table_revenue"] == 0 {
		t.Error("fact table empty")
	}
	if _, ok := db.Table("fact_table_revenue"); !ok {
		t.Error("deployed table missing from db")
	}
}

func TestPublicRequirementRoundTrip(t *testing.T) {
	r := quarry.RevenueRequirement()
	text, err := quarry.MarshalRequirement(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := xrq.Unmarshal(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != r.ID {
		t.Errorf("id = %s", back.ID)
	}
}

func TestPublicGeneratedRequirements(t *testing.T) {
	if got := len(quarry.GenerateRequirements(7)); got != 7 {
		t.Errorf("generated = %d", got)
	}
	if got := len(quarry.CanonicalRequirements()); got != 4 {
		t.Errorf("canonical = %d", got)
	}
}
