package storage

// Compaction suite: the commit-point segment merge must bound
// per-table segment counts, preserve content bit-exactly at the same
// version, leave pre-compaction snapshots readable, and — under crash
// injection — recover the pre-compaction catalog with the half-written
// merge collected as orphans.

import (
	"errors"
	"reflect"
	"testing"
)

// appendMixed commits n rows onto the live table via an append delta.
func appendMixed(t *testing.T, db *DB, base, n int) {
	t.Helper()
	live, ok := db.Table("t")
	if !ok {
		t.Fatal("table t missing")
	}
	delta, err := NewStagingTable("t", mixedCols)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := delta.Insert(mixedRow(base + i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CommitRun(nil, []AppendDelta{{Target: live, Delta: delta}}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCompactionBoundsSegments: with the threshold at 2, repeated
// append commits must never leave more than 2 segments, and the
// compacted table stays byte-identical to the append history.
func TestAutoCompactionBoundsSegments(t *testing.T) {
	setCompactSegments(t, 2)
	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, err := db.CreateTable("t", mixedCols)
	if err != nil {
		t.Fatal(err)
	}
	fillMixed(t, tbl, 100)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var want []Row
	for i := 0; i < 100; i++ {
		want = append(want, mixedRow(i))
	}
	for round := 0; round < 6; round++ {
		base := 1000 * (round + 1)
		appendMixed(t, db, base, 50)
		for i := 0; i < 50; i++ {
			want = append(want, mixedRow(base+i))
		}
		st := db.DiskStats()["t"]
		if st.Segments > 2 {
			t.Fatalf("round %d: %d segments on disk, threshold is 2", round, st.Segments)
		}
	}
	live, _ := db.Table("t")
	if !reflect.DeepEqual(live.Rows(), want) {
		t.Fatal("compacted table content diverged from append history")
	}
	re := openDisk(t, dir)
	rt, _ := re.Table("t")
	if !reflect.DeepEqual(rt.Rows(), want) {
		t.Fatal("reopened compacted table content diverged")
	}
	if got := countSegs(t, dir); got > 2 {
		t.Fatalf("%d segment files on disk after compaction, want ≤ 2", got)
	}
}

// seedSegments commits table t as a base of n rows plus rounds append
// deltas of 60 rows — 1+rounds segments at the default threshold — and
// returns its rows.
func seedSegments(t *testing.T, db *DB, n, rounds int) []Row {
	t.Helper()
	tbl, err := db.CreateTable("t", mixedCols)
	if err != nil {
		t.Fatal(err)
	}
	fillMixed(t, tbl, n)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		appendMixed(t, db, 10000*(round+1), 60)
	}
	if st := db.DiskStats()["t"]; st.Segments != 1+rounds {
		t.Fatalf("seeded %d segments, want %d", st.Segments, 1+rounds)
	}
	return tbl.Rows()
}

// TestCheckpointCompactsAtSameVersion: a Checkpoint that finds a table
// past the threshold folds it to one segment at the SAME version
// (content is unchanged — caches keyed on version must stay valid),
// and a snapshot taken before the compaction keeps reading its old
// segments.
func TestCheckpointCompactsAtSameVersion(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	want := seedSegments(t, db, 200, 4)
	live, _ := db.Table("t")
	v := db.Version()

	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	setCompactSegments(t, 4)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Version() != v {
		t.Fatalf("compaction bumped version %d → %d; content did not change", v, db.Version())
	}
	if st := db.DiskStats()["t"]; st.Segments != 1 {
		t.Fatalf("%d segments after compaction, want 1", st.Segments)
	}
	if !reflect.DeepEqual(live.Rows(), want) {
		t.Fatal("compaction changed table content")
	}
	// The pre-compaction snapshot still reads (its segments' handles
	// outlive the unlink).
	view, _ := snap.Table("t")
	if got := collect(view.Cursor(nil)); !reflect.DeepEqual(got, want) {
		t.Fatal("pre-compaction snapshot unreadable after compaction")
	}
	re := openDisk(t, dir)
	rt, _ := re.Table("t")
	if !reflect.DeepEqual(rt.Rows(), want) {
		t.Fatal("reopened table content diverged after compaction")
	}
	if got := countSegs(t, dir); got != 1 {
		t.Fatalf("%d segment files after compaction, want 1 (old ones not collected)", got)
	}
}

// TestCrashDuringCompaction kills a compacting Checkpoint at both fault
// stages; recovery must restore the pre-compaction catalog — same
// version, same rows, same segment files — with the half-written
// merged segment collected as an orphan.
func TestCrashDuringCompaction(t *testing.T) {
	for _, stage := range []string{"segments", "rename"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			db := openDisk(t, dir)
			rows := seedSegments(t, db, 400, 3)
			v := db.Version()
			segs := countSegs(t, dir)
			setCompactSegments(t, 3)
			crashAt(t, stage)
			if err := db.Checkpoint(); !errors.Is(err, errCrash) {
				t.Fatalf("Checkpoint error = %v, want injected crash", err)
			}
			// Live DB untouched.
			if db.Version() != v {
				t.Fatalf("failed compaction bumped version to %d", db.Version())
			}
			live, _ := db.Table("t")
			if !reflect.DeepEqual(live.Rows(), rows) {
				t.Fatal("failed compaction mutated the live table")
			}
			if st := db.DiskStats()["t"]; st.Segments != segs {
				t.Fatalf("failed compaction left %d segments live, want %d", st.Segments, segs)
			}
			TestingCommitFault = nil
			assertRecovered(t, dir, rows, v, segs)
		})
	}
}

// TestCrashDuringAutoCompactingAppend: an append that trips the
// auto-compaction threshold and then crashes must leave the
// pre-append state recoverable (neither the delta nor the merge
// survives).
func TestCrashDuringAutoCompactingAppend(t *testing.T) {
	for _, stage := range []string{"segments", "rename"} {
		t.Run(stage, func(t *testing.T) {
			setCompactSegments(t, 1)
			dir := t.TempDir()
			rows, v := seedCommitted(t, dir, 300)
			db := openDisk(t, dir)
			segs := countSegs(t, dir)

			live, _ := db.Table("t")
			delta, _ := NewStagingTable("t", mixedCols)
			for i := 0; i < 50; i++ {
				if err := delta.Insert(mixedRow(30000 + i)); err != nil {
					t.Fatal(err)
				}
			}
			crashAt(t, stage)
			err := db.CommitRun(nil, []AppendDelta{{Target: live, Delta: delta}})
			if !errors.Is(err, errCrash) {
				t.Fatalf("CommitRun error = %v, want injected crash", err)
			}
			if live.NumRows() != 300 {
				t.Fatalf("failed compacting append visible: %d rows", live.NumRows())
			}
			TestingCommitFault = nil
			assertRecovered(t, dir, rows, v, segs)
		})
	}
}
