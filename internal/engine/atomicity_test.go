package engine

import (
	"fmt"
	"reflect"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// Crash-injection regression tests for append-mode load atomicity:
// a run that fails after an append loader has already consumed batches
// must leave the live target table byte-identical to its pre-run state
// (appends are staged as detached deltas and merged only at the run's
// commit point), and must not bump the database version.

// poisonedAppendDesign streams src through `10 / a` into an append
// loader on sink; a row with a = 0 makes the Function operator fail
// mid-stream, after earlier batches have already reached the loader.
func poisonedAppendDesign() *xlm.Design {
	d := xlm.NewDesign("append_crash")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "a", Type: "int"}},
		Params: map[string]string{"table": "src"}})
	d.AddNode(&xlm.Node{Name: "F", Type: xlm.OpFunction,
		Params: map[string]string{"name": "f", "expr": "10 / a"}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader,
		Params: map[string]string{"table": "sink", "mode": "append"}})
	d.AddEdge("DS", "F")
	d.AddEdge("F", "LOAD")
	return d
}

func TestAppendModeFailedRunLeavesLiveTableUntouched(t *testing.T) {
	runs := map[string]func(*xlm.Design, *storage.DB) (*Result, error){
		"materializing": RunMaterializing,
		"pipelined": func(d *xlm.Design, db *storage.DB) (*Result, error) {
			// Batch size 1 guarantees several batches land in the
			// loader before the poison row aborts the run.
			return RunWithOptions(d, db, Options{Parallelism: 1, BatchSize: 1})
		},
	}
	for mode, run := range runs {
		t.Run(mode, func(t *testing.T) {
			db := storage.NewMemDB()
			src, err := db.CreateTable("src", []storage.Column{{Name: "a", Type: "int"}})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []int64{1, 2, 5} {
				if err := src.Insert(storage.Row{expr.Int(a)}); err != nil {
					t.Fatal(err)
				}
			}
			// First run succeeds and creates sink (append to a missing
			// table stages it like a replace).
			if _, err := run(poisonedAppendDesign(), db); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			sink, ok := db.Table("sink")
			if !ok {
				t.Fatal("clean run did not create sink")
			}
			before := sink.Rows()
			if len(before) != 3 {
				t.Fatalf("clean run loaded %d rows, want 3", len(before))
			}
			versionBefore := db.Version()

			// Poison the source: 10 / 0 fails the Function mid-stream.
			if err := src.Insert(storage.Row{expr.Int(0)}); err != nil {
				t.Fatal(err)
			}
			if _, err := run(poisonedAppendDesign(), db); err == nil {
				t.Fatal("poisoned run succeeded, want division error")
			}
			if got := db.Version(); got != versionBefore {
				t.Errorf("failed run bumped version %d → %d", versionBefore, got)
			}
			after := sink.Rows()
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("failed append mutated live table:\nbefore: %v\nafter:  %v", before, after)
			}

			// Recovery: removing the poison, the next run appends its
			// whole delta atomically with exactly one version bump.
			src, err = db.CreateOrReplaceTable("src", []storage.Column{{Name: "a", Type: "int"}})
			if err != nil {
				t.Fatal(err)
			}
			versionBefore = db.Version()
			if err := src.Insert(storage.Row{expr.Int(5)}); err != nil {
				t.Fatal(err)
			}
			res, err := run(poisonedAppendDesign(), db)
			if err != nil {
				t.Fatalf("recovery run: %v", err)
			}
			if res.Loaded["sink"] != 1 {
				t.Errorf("recovery run loaded %d rows, want 1", res.Loaded["sink"])
			}
			if got := sink.NumRows(); got != 4 {
				t.Errorf("sink rows after recovery = %d, want 4", got)
			}
			if got := db.Version(); got != versionBefore+1 {
				t.Errorf("recovery run version = %d, want %d", got, versionBefore+1)
			}
		})
	}
}

// TestDiskRunCrashAtCommitRecoversPreviousVersion drives a whole ETL
// run on a disk-backed warehouse into a simulated crash at the run's
// single commit point (between the staged tables' segment writes and
// the manifest rename), then reopens the directory and asserts the
// recovered warehouse is byte-identical to the previous committed
// version with the crashed run's segments garbage-collected.
func TestDiskRunCrashAtCommitRecoversPreviousVersion(t *testing.T) {
	for _, stage := range []string{"segments", "rename"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			db, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			src, err := db.CreateTable("src", []storage.Column{{Name: "a", Type: "int"}})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []int64{1, 2, 5} {
				if err := src.Insert(storage.Row{expr.Int(a)}); err != nil {
					t.Fatal(err)
				}
			}
			// Clean run commits version 2 (create + run).
			if _, err := Run(poisonedAppendDesign(), db); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			sink, _ := db.Table("sink")
			before := sink.Rows()
			versionBefore := db.Version()

			// Second run crashes at its commit point.
			storage.TestingCommitFault = func(s string) error {
				if s == stage {
					return fmt.Errorf("injected crash at %s", s)
				}
				return nil
			}
			_, err = Run(poisonedAppendDesign(), db)
			storage.TestingCommitFault = nil
			if err == nil {
				t.Fatal("crashed run reported success")
			}
			if db.Version() != versionBefore {
				t.Errorf("crashed run bumped version %d → %d", versionBefore, db.Version())
			}

			// "Restart": reopen from disk.
			re, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if re.Version() != versionBefore {
				t.Errorf("recovered version %d, want %d", re.Version(), versionBefore)
			}
			reSink, ok := re.Table("sink")
			if !ok {
				t.Fatal("recovered warehouse lost sink")
			}
			if !reflect.DeepEqual(reSink.Rows(), before) {
				t.Fatal("recovered sink differs from last committed version")
			}
			// A post-recovery run succeeds and is durable.
			if _, err := Run(poisonedAppendDesign(), re); err != nil {
				t.Fatalf("post-recovery run: %v", err)
			}
			final, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			fSink, _ := final.Table("sink")
			if got := fSink.NumRows(); got != int64(2*len(before)) {
				t.Errorf("post-recovery sink rows = %d, want %d", got, 2*len(before))
			}
		})
	}
}

// TestAppendDeltaInvisibleBeforeCommit pins the snapshot-isolation
// contract directly at the storage layer: rows staged in a delta are
// invisible to the live table until CommitRun merges them.
func TestAppendDeltaInvisibleBeforeCommit(t *testing.T) {
	db := storage.NewMemDB()
	live, err := db.CreateTable("t", []storage.Column{{Name: "x", Type: "int"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Insert(storage.Row{expr.Int(1)}); err != nil {
		t.Fatal(err)
	}
	delta, err := storage.NewStagingTable("t", []storage.Column{{Name: "x", Type: "int"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.Insert(storage.Row{expr.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if got := live.NumRows(); got != 1 {
		t.Fatalf("delta visible before commit: %d rows", got)
	}
	v := db.Version()
	db.CommitRun(nil, []storage.AppendDelta{{Target: live, Delta: delta}})
	if got := live.NumRows(); got != 2 {
		t.Errorf("rows after commit = %d, want 2", got)
	}
	if got := db.Version(); got != v+1 {
		t.Errorf("commit version = %d, want %d", got, v+1)
	}
}
