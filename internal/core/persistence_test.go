package core

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// newPersistentPlatform builds a platform over a metadata repository
// directory.
func newPersistentPlatform(t *testing.T, dir string) *Platform {
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
	p, err := New(Config{Ontology: o, Mapping: m, Catalog: c, DB: db, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLifecycleSurvivesRestart: a new platform over the same
// repository directory resumes the previous session's lifecycle.
func TestLifecycleSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	p1 := newPersistentPlatform(t, dir)
	if _, err := p1.AddRequirement(tpch.RevenueRequirement()); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.AddRequirement(tpch.NetProfitRequirement()); err != nil {
		t.Fatal(err)
	}
	md1, etl1 := p1.Unified()

	// "Restart": a fresh platform over the same directory.
	p2 := newPersistentPlatform(t, dir)
	reqs := p2.Requirements()
	if len(reqs) != 2 {
		t.Fatalf("restored %d requirements, want 2", len(reqs))
	}
	if reqs[0].ID != "IR_revenue" || reqs[1].ID != "IR_netprofit" {
		t.Errorf("restored order = %s, %s", reqs[0].ID, reqs[1].ID)
	}
	md2, etl2 := p2.Unified()
	if md2 == nil || etl2 == nil {
		t.Fatal("unified designs not restored")
	}
	if md1.Stats() != md2.Stats() {
		t.Errorf("restored MD differs: %+v vs %+v", md1.Stats(), md2.Stats())
	}
	if len(etl1.Nodes()) != len(etl2.Nodes()) {
		t.Errorf("restored ETL differs: %d vs %d nodes", len(etl1.Nodes()), len(etl2.Nodes()))
	}
	if err := p2.CheckSatisfiability(); err != nil {
		t.Fatal(err)
	}
	// Lifecycle continues after restore.
	if _, err := p2.AddRequirement(tpch.SupplyCostRequirement()); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartAfterRemoval: removals persist too.
func TestRestartAfterRemoval(t *testing.T) {
	dir := t.TempDir()
	p1 := newPersistentPlatform(t, dir)
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := p1.AddRequirement(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p1.RemoveRequirement("IR_netprofit"); err != nil {
		t.Fatal(err)
	}
	p2 := newPersistentPlatform(t, dir)
	for _, r := range p2.Requirements() {
		if r.ID == "IR_netprofit" {
			t.Error("removed requirement restored")
		}
	}
	if len(p2.Requirements()) != 3 {
		t.Errorf("restored %d requirements, want 3", len(p2.Requirements()))
	}
}

// TestRemoveRequirementSurvivesRestart: a removal is durable by itself,
// and a platform reopened over the same directory is the live one: same
// requirements, same unified designs, and no file but the requirement
// list.
func TestRemoveRequirementSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	live := newPersistentPlatform(t, dir)
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := live.AddRequirement(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.RemoveRequirement("IR_netprofit"); err != nil {
		t.Fatal(err)
	}
	reopened := newPersistentPlatform(t, dir)
	ids := func(p *Platform) (out []string) {
		for _, r := range p.Requirements() {
			out = append(out, r.ID)
		}
		return out
	}
	if got, want := ids(reopened), ids(live); len(want) != 3 || !slices.Equal(got, want) {
		t.Errorf("restored requirements %v, live platform has %v", got, want)
	}
	liveMD, liveETL := live.Unified()
	gotMD, gotETL := reopened.Unified()
	if gotMD == nil || gotETL == nil {
		t.Fatal("unified designs not restored")
	}
	if got, want := mustXML(t, xmd.Marshal, gotMD), mustXML(t, xmd.Marshal, liveMD); got != want {
		t.Errorf("restored unified MD (%d bytes of xMD) differs from the live platform's (%d)", len(got), len(want))
	}
	if got, want := mustXML(t, xlm.Marshal, gotETL), mustXML(t, xlm.Marshal, liveETL); got != want {
		t.Errorf("restored unified ETL (%d bytes of xLM) differs from the live platform's (%d)", len(got), len(want))
	}
	storeHoldsRequirementsOnly(t, dir)
}

// storeHoldsRequirementsOnly fails unless dir holds requirements.json
// and nothing else.
func storeHoldsRequirementsOnly(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"requirements.json"}) {
		t.Errorf("store directory holds %v, want requirements.json only", names)
	}
}

// TestFailedWriteIsNotApplied: an add, change or removal whose write
// fails returns ErrStore and leaves the platform as a restart over the
// same directory finds it — same requirements, same unified designs —
// and the same change succeeds once the write can.
func TestFailedWriteIsNotApplied(t *testing.T) {
	dir := t.TempDir()
	p := newPersistentPlatform(t, dir)
	for _, r := range []*xrq.Requirement{tpch.RevenueRequirement(), tpch.NetProfitRequirement()} {
		if _, err := p.AddRequirement(r); err != nil {
			t.Fatal(err)
		}
	}
	changed := tpch.RevenueRequirement()
	changed.Slicers[0].Value = "FRANCE"
	// A directory where the temporary file goes makes every write fail.
	block := filepath.Join(dir, "requirements.json.tmp")
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"add", func() error { _, err := p.AddRequirement(tpch.SupplyCostRequirement()); return err }},
		{"change", func() error { _, err := p.ChangeRequirement(changed); return err }},
		{"remove", func() error { _, err := p.RemoveRequirement("IR_netprofit"); return err }},
	} {
		if err := os.Mkdir(block, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := step.do(); !errors.Is(err, ErrStore) {
			t.Fatalf("%s over a blocked write: error %v, want ErrStore", step.name, err)
		}
		sameDesigns(t, step.name+" whose write failed", p, newPersistentPlatform(t, dir))
		if err := os.Remove(block); err != nil {
			t.Fatal(err)
		}
		if err := step.do(); err != nil {
			t.Fatalf("%s retried: %v", step.name, err)
		}
		sameDesigns(t, step.name+" retried", p, newPersistentPlatform(t, dir))
	}
	reqs := p.Requirements()
	if len(reqs) != 2 || reqs[0].ID != "IR_revenue" || reqs[0].Slicers[0].Value != "FRANCE" || reqs[1].ID != "IR_supplycost" {
		t.Errorf("after the retries the platform holds %v, want IR_revenue on FRANCE and IR_supplycost", reqs)
	}
}

func mustXML[T any](t *testing.T, marshal func(T) (string, error), v T) string {
	t.Helper()
	text, err := marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestEmptyDirRestoresNothing: a fresh directory yields an empty
// lifecycle.
func TestEmptyDirRestoresNothing(t *testing.T) {
	p := newPersistentPlatform(t, t.TempDir())
	if len(p.Requirements()) != 0 {
		t.Error("phantom requirements restored")
	}
	md, etl := p.Unified()
	if md != nil || etl != nil {
		t.Error("phantom designs restored")
	}
}
