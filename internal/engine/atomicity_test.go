package engine

import (
	"fmt"
	"reflect"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// Crash-injection regression tests for load atomicity: a run that
// fails after a loader has already consumed batches must leave the
// live target table byte-identical to its pre-run state (the loader
// streams into a detached staging table published only at the run's
// commit point), and must not bump the database version.

// poisonedDesign streams src through `10 / a` into a loader of sink; a
// row with a = 0 makes the Function operator fail mid-stream, after
// earlier batches have already reached the loader.
func poisonedDesign() *xlm.Design {
	d := xlm.NewDesign("load_crash")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "a", Type: "int"}},
		Params: map[string]string{"table": "src"}})
	d.AddNode(&xlm.Node{Name: "F", Type: xlm.OpFunction,
		Params: map[string]string{"name": "f", "expr": "10 / a"}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader,
		Params: map[string]string{"table": "sink"}})
	d.AddEdge("DS", "F")
	d.AddEdge("F", "LOAD")
	return d
}

func TestFailedRunMidStreamLeavesLiveTableUntouched(t *testing.T) {
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
			if _, err := run(poisonedDesign(), db); err != nil {
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
			if _, err := run(poisonedDesign(), db); err == nil {
				t.Fatal("poisoned run succeeded, want division error")
			}
			if got := db.Version(); got != versionBefore {
				t.Errorf("failed run bumped version %d → %d", versionBefore, got)
			}
			if live, _ := db.Table("sink"); live != sink || !reflect.DeepEqual(before, sink.Rows()) {
				t.Fatalf("failed run changed the live table:\nbefore: %v\nafter:  %v", before, live.Rows())
			}

			// Recovery: without the poison, the next run replaces sink
			// with exactly one version bump.
			src, err = db.CreateOrReplaceTable("src", []storage.Column{{Name: "a", Type: "int"}})
			if err != nil {
				t.Fatal(err)
			}
			versionBefore = db.Version()
			if err := src.Insert(storage.Row{expr.Int(5)}); err != nil {
				t.Fatal(err)
			}
			res, err := run(poisonedDesign(), db)
			if err != nil {
				t.Fatalf("recovery run: %v", err)
			}
			sink, _ = db.Table("sink")
			if res.Loaded["sink"] != 1 || sink.NumRows() != 1 {
				t.Errorf("recovery run loaded %d rows, sink holds %d, want 1 and 1", res.Loaded["sink"], sink.NumRows())
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
			if _, err := Run(poisonedDesign(), db); err != nil {
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
			_, err = Run(poisonedDesign(), db)
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
			reSrc, _ := re.Table("src")
			if err := reSrc.Insert(storage.Row{expr.Int(10)}); err != nil {
				t.Fatal(err)
			}
			if _, err := Run(poisonedDesign(), re); err != nil {
				t.Fatalf("post-recovery run: %v", err)
			}
			final, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			fSink, _ := final.Table("sink")
			if got := fSink.NumRows(); got != int64(len(before)+1) {
				t.Errorf("post-recovery sink rows = %d, want %d", got, len(before)+1)
			}
		})
	}
}
