package storage

// Crash-injection suite for the disk backend: every test drives a
// commit into a simulated crash via TestingCommitFault, then reopens
// the directory as a fresh process would and asserts the recovered
// warehouse is byte-identical to the last committed version, with the
// failed run's orphan segments garbage-collected.

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"quarry/internal/expr"
	mf "quarry/internal/storage/manifest"
)

var errCrash = errors.New("injected crash")

// crashAt arms the fault hook for one named stage and disarms it when
// the test ends.
func crashAt(t *testing.T, stage string) {
	t.Helper()
	TestingCommitFault = func(s string) error {
		if s == stage {
			return errCrash
		}
		return nil
	}
	t.Cleanup(func() { TestingCommitFault = nil })
}

// seedCommitted builds a dir with one committed table of n rows and
// returns its rows (the recovery oracle) and committed version.
func seedCommitted(t *testing.T, dir string, n int) ([]Row, uint64) {
	t.Helper()
	db := openDisk(t, dir)
	tbl, err := db.CreateTable("t", mixedCols)
	if err != nil {
		t.Fatal(err)
	}
	fillMixed(t, tbl, n)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return tbl.Rows(), db.Version()
}

// countSegs counts segment files on disk.
func countSegs(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if _, ok := mf.SegmentID(e.Name()); ok {
			n++
		}
	}
	return n
}

func assertRecovered(t *testing.T, dir string, wantRows []Row, wantVersion uint64, wantSegs int) {
	t.Helper()
	re := openDisk(t, dir)
	if re.Version() != wantVersion {
		t.Fatalf("recovered version %d, want %d", re.Version(), wantVersion)
	}
	tbl, ok := re.Table("t")
	if !ok {
		t.Fatal("recovered DB lost table t")
	}
	if got := tbl.Rows(); !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("recovered rows differ from last committed version (%d vs %d rows)", len(got), len(wantRows))
	}
	if got := countSegs(t, dir); got != wantSegs {
		t.Fatalf("%d segment files after recovery, want %d (orphans not collected?)", got, wantSegs)
	}
}

// TestCrashBetweenSegmentsAndManifest kills the commit after the new
// segment files are written and synced but before the manifest is
// touched — the ISSUE's canonical crash point.
func TestCrashBetweenSegmentsAndManifest(t *testing.T) {
	dir := t.TempDir()
	rows, v := seedCommitted(t, dir, 1000)
	segs := countSegs(t, dir)

	db := openDisk(t, dir)
	staged, _ := NewStagingTable("t", mixedCols)
	for i := 0; i < 50; i++ {
		if err := staged.Insert(mixedRow(100000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	crashAt(t, "segments")
	if err := db.Publish(staged); !errors.Is(err, errCrash) {
		t.Fatalf("Publish error = %v, want injected crash", err)
	}
	// The failed run left orphan segment files behind.
	if got := countSegs(t, dir); got <= segs {
		t.Fatalf("expected orphan segments on disk, found %d (committed: %d)", got, segs)
	}
	// The live in-process DB is untouched: same version, same rows.
	if db.Version() != v {
		t.Fatalf("failed commit bumped version to %d", db.Version())
	}
	live, _ := db.Table("t")
	if !reflect.DeepEqual(live.Rows(), rows) {
		t.Fatal("failed commit mutated the live table")
	}
	TestingCommitFault = nil
	assertRecovered(t, dir, rows, v, segs)
}

// TestCrashBetweenTmpAndRename kills the commit after manifest.tmp is
// written and synced but before the rename — the last possible
// instant a crash must still recover the previous version.
func TestCrashBetweenTmpAndRename(t *testing.T) {
	dir := t.TempDir()
	rows, v := seedCommitted(t, dir, 1000)
	segs := countSegs(t, dir)

	db := openDisk(t, dir)
	staged, _ := NewStagingTable("t", mixedCols)
	if err := staged.Insert(mixedRow(7)); err != nil {
		t.Fatal(err)
	}
	crashAt(t, "rename")
	if err := db.Publish(staged); !errors.Is(err, errCrash) {
		t.Fatalf("Publish error = %v, want injected crash", err)
	}
	TestingCommitFault = nil
	assertRecovered(t, dir, rows, v, segs)
}

// TestCrashRecoveryThenCommit proves the recovered DB is fully
// writable: after a crash + reopen, a new commit succeeds and the
// re-reopened state reflects it (orphan GC freed the ids and files a
// new run needs).
func TestCrashRecoveryThenCommit(t *testing.T) {
	dir := t.TempDir()
	_, v := seedCommitted(t, dir, 300)

	db := openDisk(t, dir)
	staged, _ := NewStagingTable("t", mixedCols)
	if err := staged.Insert(mixedRow(1)); err != nil {
		t.Fatal(err)
	}
	crashAt(t, "segments")
	if err := db.Publish(staged); !errors.Is(err, errCrash) {
		t.Fatalf("Publish error = %v, want injected crash", err)
	}
	TestingCommitFault = nil

	re := openDisk(t, dir)
	staged2, _ := NewStagingTable("t", mixedCols)
	want := []Row{mixedRow(41), mixedRow(42)}
	if err := staged2.InsertAll(want); err != nil {
		t.Fatal(err)
	}
	if err := re.Publish(staged2); err != nil {
		t.Fatal(err)
	}
	final := openDisk(t, dir)
	if final.Version() != v+1 {
		t.Fatalf("version %d, want %d", final.Version(), v+1)
	}
	tbl, _ := final.Table("t")
	if !reflect.DeepEqual(tbl.Rows(), want) {
		t.Fatal("post-recovery commit not durable")
	}
}

// TestReadersDoNotBlockOnCommitIO pins the commit-concurrency design:
// segment and manifest I/O happen under the store's commit mutex, not
// db.mu, so snapshots and version reads proceed while a commit is in
// flight (stalled here at the fault hook, exactly where the fsyncs
// happen).
func TestReadersDoNotBlockOnCommitIO(t *testing.T) {
	dir := t.TempDir()
	rows, v := seedCommitted(t, dir, 200)
	db := openDisk(t, dir)

	inCommit := make(chan struct{})
	release := make(chan struct{})
	TestingCommitFault = func(stage string) error {
		if stage == "segments" {
			close(inCommit)
			<-release
		}
		return nil
	}
	t.Cleanup(func() { TestingCommitFault = nil })

	staged, _ := NewStagingTable("t", mixedCols)
	if err := staged.Insert(mixedRow(3)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- db.Publish(staged) }()
	<-inCommit

	// The commit is parked mid-I/O. Reads must complete now.
	if got := db.Version(); got != v {
		t.Errorf("version read mid-commit = %d, want %d", got, v)
	}
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatalf("snapshot mid-commit: %v", err)
	}
	view, _ := snap.Table("t")
	if int(view.NumRows()) != len(rows) {
		t.Errorf("snapshot mid-commit sees %d rows, want %d", view.NumRows(), len(rows))
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := db.Version(); got != v+1 {
		t.Errorf("version after commit = %d, want %d", got, v+1)
	}
}

// TestRecoveryIgnoresStrayTmpManifest: a crash can leave manifest.tmp
// fully written; recovery must stick with manifest.json and delete the
// tmp rather than adopt it.
func TestRecoveryIgnoresStrayTmpManifest(t *testing.T) {
	dir := t.TempDir()
	rows, v := seedCommitted(t, dir, 100)
	segs := countSegs(t, dir)

	db := openDisk(t, dir)
	staged, _ := NewStagingTable("t", []Column{{Name: "z", Type: "int"}})
	if err := staged.Insert(Row{expr.Int(1)}); err != nil {
		t.Fatal(err)
	}
	crashAt(t, "rename")
	if err := db.Publish(staged); !errors.Is(err, errCrash) {
		t.Fatal(err)
	}
	TestingCommitFault = nil
	assertRecovered(t, dir, rows, v, segs)
	if got := countSegs(t, dir); got != segs {
		t.Fatalf("tmp manifest's segments survived recovery: %d vs %d", got, segs)
	}
}
