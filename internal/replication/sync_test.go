package replication_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/replication"
	"quarry/internal/storage"
)

var testCols = []storage.Column{
	{Name: "id", Type: "int"},
	{Name: "name", Type: "string"},
	{Name: "score", Type: "float"},
}

func testRow(i int) storage.Row {
	return storage.Row{expr.Int(int64(i)), expr.Str(fmt.Sprintf("row-%d", i)), expr.Float(float64(i) / 8)}
}

// newPrimary builds a committed disk-backed database with two tables.
func newPrimary(t *testing.T, rows int) (*storage.DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		tbl, err := db.CreateTable(name, testCols)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := tbl.Insert(testRow(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db, dir
}

func newReplica(t *testing.T, primaryDir string) (*storage.DB, *replication.Syncer) {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sy, err := replication.NewSyncer(db, &replication.DirSource{Dir: primaryDir}, primaryDir)
	if err != nil {
		t.Fatal(err)
	}
	return db, sy
}

// assertTablesEqual fails unless both databases hold identical tables
// (same names, columns, rows in order).
func assertTablesEqual(t *testing.T, want, got *storage.DB) {
	t.Helper()
	wn, gn := want.TableNames(), got.TableNames()
	if strings.Join(wn, ",") != strings.Join(gn, ",") {
		t.Fatalf("table sets differ: primary %v, replica %v", wn, gn)
	}
	for _, name := range wn {
		wt, _ := want.Table(name)
		gt, ok := got.Table(name)
		if !ok {
			t.Fatalf("replica lacks table %s", name)
		}
		wr, gr := wt.Rows(), gt.Rows()
		if len(wr) != len(gr) {
			t.Fatalf("%s: primary %d rows, replica %d", name, len(wr), len(gr))
		}
		for i := range wr {
			for j := range wr[i] {
				if wr[i][j].String() != gr[i][j].String() {
					t.Fatalf("%s row %d col %d: primary %s, replica %s",
						name, i, j, wr[i][j].String(), gr[i][j].String())
				}
			}
		}
	}
}

// TestSyncerConverges: a cold replica converges to the primary in one
// pass, an unchanged primary syncs as a no-op, and further primary
// commits (appends, then a same-version compaction) are adopted
// incrementally.
func TestSyncerConverges(t *testing.T) {
	pdb, pdir := newPrimary(t, 200)
	rdb, sy := newReplica(t, pdir)

	rep, err := sy.Sync(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed || rep.Segments == 0 || rep.Bytes == 0 {
		t.Fatalf("cold sync report = %+v, want a changed pass with fetched segments", rep)
	}
	if rdb.Version() != pdb.Version() {
		t.Fatalf("replica at version %d, primary at %d", rdb.Version(), pdb.Version())
	}
	assertTablesEqual(t, pdb, rdb)
	st := sy.Status()
	if !st.Converged || st.VersionsBehind != 0 {
		t.Fatalf("status = %+v, want converged with zero lag", st)
	}

	// Unchanged primary: a cheap no-op.
	rep, err = sy.Sync(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed || rep.Segments != 0 {
		t.Fatalf("no-op sync report = %+v", rep)
	}

	// Primary appends and commits: the replica fetches only the delta.
	tbl, _ := pdb.Table("alpha")
	for i := 200; i < 300; i++ {
		if err := tbl.Insert(testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err = sy.Sync(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed {
		t.Fatalf("append sync report = %+v, want changed", rep)
	}
	assertTablesEqual(t, pdb, rdb)

	// Same-version compaction: checkpoints add a segment each at the
	// same version until the one past the threshold folds them all. The
	// manifest bytes change but not the version; byte-equality (not
	// version equality) must drive the adoption, or the replica would
	// keep referencing segments the primary GC'd.
	for i := 300; pdb.DiskStats()["alpha"].Segments > 1; i++ {
		if err := tbl.Insert(testRow(i)); err != nil {
			t.Fatal(err)
		}
		if err := pdb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if i > 400 {
			t.Fatal("checkpoints never compacted alpha")
		}
	}
	rep, err = sy.Sync(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed {
		t.Fatal("compaction at an unchanged version was not adopted")
	}
	if rdb.Version() != pdb.Version() {
		t.Fatalf("replica at version %d, primary at %d", rdb.Version(), pdb.Version())
	}
	assertTablesEqual(t, pdb, rdb)
}

// TestSyncerCrashMidSync injects a failure at every stage of the sync
// protocol — mid-fetch, before the renames, before the manifest
// commit — and checks the invariant the protocol exists for: a torn
// pass leaves the replica serving its previous committed version, and
// the next pass converges cleanly.
func TestSyncerCrashMidSync(t *testing.T) {
	for _, stage := range []string{"fetch:", "rename", "commit"} {
		t.Run(strings.TrimSuffix(stage, ":"), func(t *testing.T) {
			pdb, pdir := newPrimary(t, 150)
			rdb, sy := newReplica(t, pdir)
			rdir := rdb.StorageDir()

			replication.TestingSyncFault = func(s string) error {
				if strings.HasPrefix(s, stage) {
					return fmt.Errorf("injected crash at %s", s)
				}
				return nil
			}
			defer func() { replication.TestingSyncFault = nil }()

			if _, err := sy.Sync(t.Context()); err == nil {
				t.Fatal("injected fault did not abort the pass")
			}
			// The torn pass must not have published anything: no catalog,
			// version still zero.
			if v := rdb.Version(); v != 0 {
				t.Fatalf("torn pass advanced the replica to version %d", v)
			}
			st := sy.Status()
			if st.Converged || st.LastError == "" {
				t.Fatalf("status after torn pass = %+v", st)
			}

			// Recovery: the next pass cleans partial downloads and
			// converges.
			replication.TestingSyncFault = nil
			rep, err := sy.Sync(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Changed {
				t.Fatalf("recovery sync report = %+v", rep)
			}
			if rdb.Version() != pdb.Version() {
				t.Fatalf("replica at version %d, primary at %d", rdb.Version(), pdb.Version())
			}
			assertTablesEqual(t, pdb, rdb)

			// No .fetch debris survives a completed pass.
			entries, err := os.ReadDir(rdir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".fetch") {
					t.Fatalf("stray partial download %s survived recovery", e.Name())
				}
			}
		})
	}
}

// TestSyncerRefetchesChangedSegment: when the primary's catalog names
// a segment file the replica already has but with a DIFFERENT
// descriptor (a recycled id after a primary crash + republish, or a
// compaction reusing a name), the replica must refetch it — file-name
// presence is not content identity.
func TestSyncerRefetchesChangedSegment(t *testing.T) {
	pdb, pdir := newPrimary(t, 100)
	rdb, sy := newReplica(t, pdir)
	if _, err := sy.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}

	// Simulate a recycled segment id: rebuild the primary directory
	// from scratch with different contents. Segment numbering restarts,
	// so the new catalog reuses file names the replica already holds.
	if err := os.RemoveAll(pdir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		t.Fatal(err)
	}
	pdb2, err := storage.Open(pdir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := pdb2.CreateTable("alpha", testCols)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1000; i < 1100; i++ {
		if err := tbl.Insert(testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pdb2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = pdb // the old primary object is dead; its directory was rebuilt

	rep, err := sy.Sync(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed || rep.Segments == 0 {
		t.Fatalf("recycled-id sync report = %+v, want refetched segments", rep)
	}
	assertTablesEqual(t, pdb2, rdb)
}

// TestSyncerEmptyPrimary: a primary directory with no manifest yet is
// a clean no-op, not an error.
func TestSyncerEmptyPrimary(t *testing.T) {
	dir := t.TempDir()
	rdb, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sy, err := replication.NewSyncer(rdb, &replication.DirSource{Dir: dir}, dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sy.Sync(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed {
		t.Fatalf("empty primary produced a changed pass: %+v", rep)
	}
}

// TestSyncerRequiresDiskBackedReplica pins the constructor contract:
// the manifest protocol IS the disk layout, so an in-memory replica is
// rejected up front.
func TestSyncerRequiresDiskBackedReplica(t *testing.T) {
	if _, err := replication.NewSyncer(storage.NewMemDB(), &replication.DirSource{Dir: t.TempDir()}, "x"); err == nil {
		t.Fatal("in-memory replica accepted")
	}
}

// TestSyncerRejectsFormat1: a primary directory in the format-1 layout
// of earlier releases fails the pass with an error naming the format,
// and the replica keeps its (empty) catalog.
func TestSyncerRejectsFormat1(t *testing.T) {
	pdir := t.TempDir()
	man := `{"format":1,"version":3,"tables":[]}`
	if err := os.WriteFile(filepath.Join(pdir, "manifest.json"), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	rdb, sy := newReplica(t, pdir)
	if _, err := sy.Sync(t.Context()); err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("sync of a format-1 primary: err = %v", err)
	}
	if rdb.Version() != 0 || len(rdb.TableNames()) != 0 {
		t.Fatalf("a refused sync installed version %d, tables %v", rdb.Version(), rdb.TableNames())
	}
}

// TestDirSourceRejectsTraversal: segment names are validated before
// touching the filesystem.
func TestDirSourceRejectsTraversal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "secret"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := &replication.DirSource{Dir: dir}
	for _, name := range []string{"../secret", "secret", "seg-../../etc.qseg"} {
		if _, err := src.Segment(t.Context(), name); err == nil {
			t.Fatalf("Segment(%q) accepted a non-segment name", name)
		}
	}
}
