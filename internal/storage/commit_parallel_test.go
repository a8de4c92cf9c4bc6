package storage

// The commit writes all of its segments together — pages encoded by a
// worker group, files written and fsynced concurrently. These tests
// hold it to what the serial commit promised: the same bytes in the
// same places, nothing left behind by a failure, no goroutine or file
// descriptor outliving the call, snapshot atomicity under concurrent
// commits.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quarry/internal/expr"
	mf "quarry/internal/storage/manifest"
)

// tenTables stages ten tables t0..t9 of different shapes and sizes —
// the larger ones span several pages — every row tagged with gen in its
// first column.
func tenTables(t testing.TB, gen int) []*Table {
	t.Helper()
	cols := append([]Column{{Name: "gen", Type: "int"}}, mixedCols...)
	tables := make([]*Table, 10)
	for ti := range tables {
		tbl, err := NewStagingTable(fmt.Sprintf("t%d", ti), cols)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, 1+ti*ti*150)
		for i := range rows {
			rows[i] = append(Row{expr.Int(int64(gen))}, mixedRow(i*(ti+1))...)
		}
		if err := tbl.InsertAll(rows); err != nil {
			t.Fatal(err)
		}
		tables[ti] = tbl
	}
	return tables
}

// dirState maps every file in dir to its contents.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// openFilesUnder counts this process's open descriptors per file under
// dir (a removed file still shows, marked deleted); ok is false where
// /proc is not there to ask. Descriptors elsewhere — other tests' stores
// the collector closes whenever it likes — are not its business.
func openFilesUnder(dir string) (files map[string]int, ok bool) {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, false
	}
	files = map[string]int{}
	for _, e := range entries {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
			files[target]++
		}
	}
	return files, true
}

// settledGoroutines waits briefly for the goroutine count to come back
// to want (an exiting goroutine is counted until it has fully
// unwound) and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n != want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestCommitMatchesSerialWriter: a ten-table commit leaves, whatever
// the worker count, exactly what writing the segments one after
// another with the reference encoder leaves — file bytes, page order,
// offsets, and the manifest's page directory.
func TestCommitMatchesSerialWriter(t *testing.T) {
	commit := func(procs int) (string, *DB) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		db := openDisk(t, dir)
		if err := db.Publish(tenTables(t, 1)...); err != nil {
			t.Fatal(err)
		}
		return dir, db
	}
	serialDir, _ := commit(1)
	parallelDir, db := commit(8)
	serial, par := dirState(t, serialDir), dirState(t, parallelDir)
	if !reflect.DeepEqual(serial, par) {
		for name := range serial {
			if serial[name] != par[name] {
				t.Errorf("%s differs between GOMAXPROCS 1 and 8", name)
			}
		}
		t.Fatalf("directories differ: %d files vs %d", len(serial), len(par))
	}

	man, _, err := mf.Read(parallelDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Tables) != 10 {
		t.Fatalf("manifest names %d tables", len(man.Tables))
	}
	for ti, mt := range man.Tables {
		if want := fmt.Sprintf("t%d", ti); mt.Name != want || len(mt.Segments) != 1 {
			t.Fatalf("manifest table %d is %q with %d segments, want %q with 1", ti, mt.Name, len(mt.Segments), want)
		}
		ms := mt.Segments[0]
		if want := fmt.Sprintf("%s%08d%s", segPrefix, ti, segSuffix); ms.File != want {
			t.Errorf("table %s is in %s, the serial writer numbers it %s", mt.Name, ms.File, want)
		}
		tbl, _ := db.Table(mt.Name)
		rows := tbl.Rows()
		var file []byte
		var dir []manifestPage
		first := 0
		for _, n := range splitPages(len(tbl.Columns), rows) {
			ep := encodePageReference(tbl.Columns, rows[first:first+n])
			dir = append(dir, manifestPage{Off: int64(len(file)), Size: len(ep.buf), Rows: n,
				Raw: ep.raw, Zones: zonesToManifest(ep.zones)})
			file = append(file, ep.buf...)
			first += n
		}
		if !bytes.Equal([]byte(par[ms.File]), file) {
			t.Errorf("%s: file bytes differ from the reference pages laid end to end", ms.File)
		}
		if !sameEntry(ms, manifestSegment{File: ms.File, Rows: len(rows), Format: manifestFormatV2, Pages: dir}) {
			t.Errorf("%s: page directory differs from the serial writer's", ms.File)
		}
		if ti == 9 && len(dir) < 3 {
			t.Fatalf("largest table has %d pages; the test wants several", len(dir))
		}
	}
}

var errIO = errors.New("injected I/O error")

// TestFailedSegmentWriteLeavesNothing fails the write, or the fsync, of
// the k-th of ten concurrently written segments. The commit must fail
// as one: every file it created removed (the segments that were written
// in full included), no manifest.tmp, the directory byte for byte what
// it was, the live DB and a reopened one at the previous version, and
// neither a goroutine nor a file descriptor left over.
func TestFailedSegmentWriteLeavesNothing(t *testing.T) {
	for _, stage := range []string{"write", "sync"} {
		for _, k := range []int32{1, 5, 10} {
			t.Run(fmt.Sprintf("%s/%d", stage, k), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
				dir := t.TempDir()
				rows, v := seedCommitted(t, dir, 1000)
				segs := countSegs(t, dir)
				db := openDisk(t, dir)
				staged := tenTables(t, 1)
				before := dirState(t, dir)

				var calls atomic.Int32
				TestingCommitFault = func(s string) error {
					if s == stage && calls.Add(1) == k {
						return errIO
					}
					return nil
				}
				t.Cleanup(func() { TestingCommitFault = nil })
				goroutines := runtime.NumGoroutine()
				fds, _ := openFilesUnder(dir)
				err := db.Publish(staged...)
				if !errors.Is(err, errIO) {
					t.Fatalf("Publish error = %v, want the injected I/O error", err)
				}
				if got := settledGoroutines(goroutines); got != goroutines {
					t.Errorf("%d goroutines after the failed commit, %d before", got, goroutines)
				}
				if got, _ := openFilesUnder(dir); !reflect.DeepEqual(got, fds) {
					t.Errorf("open files after the failed commit: %v, before: %v", got, fds)
				}
				if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
					for name := range after {
						if _, ok := before[name]; !ok {
							t.Errorf("failed commit left %s behind", name)
						}
					}
					t.Fatal("failed commit changed the directory")
				}
				if db.Version() != v {
					t.Fatalf("failed commit bumped version to %d", db.Version())
				}
				if _, ok := db.Table("t3"); ok {
					t.Fatal("failed commit registered a staged table")
				}
				TestingCommitFault = nil
				assertRecovered(t, dir, rows, v, segs)
				// And the store is still writable: the same tables commit.
				if err := db.Publish(staged...); err != nil {
					t.Fatalf("commit after the failure: %v", err)
				}
			})
		}
	}
}

// TestSimulatedCrashClosesFiles: the two crash stages leave the new
// segment files on disk for recovery to find (crash_test.go), but the
// process that "crashed" lives on in these tests and in a server whose
// commit hit the hook — it must not keep their descriptors.
func TestSimulatedCrashClosesFiles(t *testing.T) {
	for _, stage := range []string{"segments", "rename"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			seedCommitted(t, dir, 100)
			db := openDisk(t, dir)
			staged := tenTables(t, 1)
			crashAt(t, stage)
			fds, ok := openFilesUnder(dir)
			if !ok {
				t.Skip("no /proc/self/fd")
			}
			if err := db.Publish(staged...); !errors.Is(err, errCrash) {
				t.Fatalf("Publish error = %v, want injected crash", err)
			}
			if got, _ := openFilesUnder(dir); !reflect.DeepEqual(got, fds) {
				t.Fatalf("open files after the simulated crash: %v, before: %v", got, fds)
			}
		})
	}
}

// TestCommitRunUnderConcurrentReaders (for -race): runs keep replacing
// ten tables while snapshot readers scan them and a Checkpoint queues
// behind the commit mutex. A snapshot must show all ten tables from one
// run, whole.
func TestCommitRunUnderConcurrentReaders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := openDisk(t, t.TempDir())
	if err := db.Publish(tenTables(t, 0)...); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := db.Snapshot(names...)
				if err != nil {
					t.Error(err)
					return
				}
				gen := int64(-1)
				for ti, name := range names {
					view, _ := snap.Table(name)
					n := 0
					for _, row := range collect(view.Cursor(nil)) {
						if g := row[0].AsInt(); gen < 0 {
							gen = g
						} else if g != gen {
							t.Errorf("snapshot mixes runs %d and %d", gen, g)
							return
						}
						n++
					}
					if want := 1 + ti*ti*150; n != want {
						t.Errorf("snapshot of %s has %d rows, want %d", name, n, want)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for gen := 1; gen <= 4; gen++ {
		if err := db.Publish(tenTables(t, gen)...); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
