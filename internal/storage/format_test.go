package storage

// Format suite: this build reads and writes format 2 only. A format-1
// directory of an earlier release, a format it does not know, and a
// page directory it could not have written all fail Open (and Reload)
// with an error that says what is wrong and where — never a decode
// panic halfway into a query, never a page silently skipped.

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quarry/internal/expr"
)

// writeV1Store hand-builds a format-1 directory — one table "t" of n
// mixedRow rows in a single fixed-64KiB raw page — exactly as earlier
// releases laid it out, and returns the rows.
func writeV1Store(t *testing.T, dir string, n int) []Row {
	t.Helper()
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = mixedRow(i)
	}
	// v1 page: u32 rowCount, then per column u32 chunkLen + bare raw
	// body (presence bitmap + present values), zero-padded to pageSize.
	var buf []byte
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(n))
	buf = append(buf, u32[:]...)
	for ci := range mixedCols {
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = appendRawBody(buf, rows, ci)
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	if len(buf) > pageSize {
		t.Fatalf("test page overflows a v1 page: %d bytes", len(buf))
	}
	buf = append(buf, make([]byte, pageSize-len(buf))...)
	segName := segPrefix + "00000000" + segSuffix
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	man := manifest{Format: 1, Version: 3, Tables: []manifestTable{{
		Name: "t", Columns: mixedCols,
		Segments: []manifestSegment{{File: segName, Rows: n,
			Pages: []manifestPage{{Off: 0, Size: pageSize, Rows: n}}}},
	}}}
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestFormat1Rejected: a directory of an earlier release fails Open,
// and a Reload that finds one, with an error naming format 1 and the
// way to migrate it — not a decode error, and not a partial catalog.
func TestFormat1Rejected(t *testing.T) {
	dir := t.TempDir()
	writeV1Store(t, dir, 300)
	_, err := Open(dir)
	if err == nil {
		t.Fatal("Open accepted a format-1 directory")
	}
	for _, want := range []string{"format 1", "quarryd -compact"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Open error %q does not mention %q", err, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, segPrefix+"00000000"+segSuffix)); err != nil {
		t.Fatalf("a refused Open touched the directory: %v", err)
	}

	dir2 := t.TempDir()
	db := openDisk(t, dir2)
	writeV1Store(t, dir2, 10)
	if err := db.Reload(); err == nil || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("Reload of a format-1 manifest: err = %v", err)
	}
	if names := db.TableNames(); len(names) != 0 {
		t.Fatalf("a refused Reload installed tables %v", names)
	}
}

// TestUnknownFormatRejected: a manifest (or segment) from a future
// format must fail Open with an error naming the readable formats —
// not a decode panic halfway into a query.
func TestUnknownFormatRejected(t *testing.T) {
	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		writeV1Store(t, dir, 10)
		mangle(t, dir, func(man *manifest) { man.Format = 3 })
		_, err := Open(dir)
		if err == nil {
			t.Fatal("Open accepted format 3")
		}
		if !strings.Contains(err.Error(), "format 3") {
			t.Fatalf("error %q does not name the offending format", err)
		}
	})
	t.Run("segment", func(t *testing.T) {
		dir := t.TempDir()
		writeV1Store(t, dir, 10)
		mangle(t, dir, func(man *manifest) {
			man.Format = manifestFormatV2
			man.Tables[0].Segments[0].Format = 9
		})
		if _, err := Open(dir); err == nil {
			t.Fatal("Open accepted a segment of format 9")
		}
	})
	// A segment inherits nothing: one without a format of its own is
	// refused under a format-2 manifest too.
	t.Run("untagged segment", func(t *testing.T) {
		dir := t.TempDir()
		writeV1Store(t, dir, 10)
		mangle(t, dir, func(man *manifest) { man.Format = manifestFormatV2 })
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "format 0") {
			t.Fatalf("Open of an untagged segment: err = %v", err)
		}
	})
}

// mangle rewrites the committed manifest through f.
func mangle(t *testing.T, dir string, f func(*manifest)) {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	f(&man)
	out, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestPageDirectoryChecked: a manifest whose page directory
// this build could not have written fails Open, naming table, segment
// and page, instead of being trusted. A zone bound of the wrong kind,
// or a min above the max, would have the cursor skip a page holding a
// qualifying row; a page claiming 2³¹ rows would size the decode of
// its first read — it must fail before anything is allocated for it.
func TestManifestPageDirectoryChecked(t *testing.T) {
	str := func(s string) *manifestValue { return &manifestValue{S: &s} }
	num := func(i int64) *manifestValue { return &manifestValue{I: &i} }
	cases := []struct {
		name   string
		mangle func(*manifestSegment)
		want   string
	}{
		{"bound of the wrong kind", func(ms *manifestSegment) {
			ms.Pages[0].Zones[0].Min, ms.Pages[0].Zones[0].Max = str("a"), str("a")
		}, "not one int value"},
		{"min above max", func(ms *manifestSegment) {
			ms.Pages[0].Zones[0].Min, ms.Pages[0].Zones[0].Max = num(1000), num(0)
		}, "above max"},
		{"2^31 rows", func(ms *manifestSegment) {
			ms.Rows, ms.Pages[0].Rows = math.MaxInt32+1, math.MaxInt32+1
		}, "no page this build writes"},
		{"missing raw size", func(ms *manifestSegment) { ms.Pages[0].Raw = 0 }, "no page this build writes"},
		{"nulls past the rows", func(ms *manifestSegment) { ms.Pages[0].Zones[2].Nulls = ms.Rows + 1 }, "nulls"},
		{"zone map of the wrong arity", func(ms *manifestSegment) { ms.Pages[0].Zones = ms.Pages[0].Zones[:2] }, "2 entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seedCommitted(t, dir, 200)
			// Unmangled, a cursor for i = 5 reads the one page holding it.
			cur := viewOf(t, openDisk(t, dir), "t").Cursor([]PrunePredicate{{Col: "i", Op: "=", Val: expr.Int(5)}})
			collect(cur)
			if read, skipped := cur.Stats(); read != 1 || skipped != 0 {
				t.Fatalf("setup: i = 5 read %d pages, skipped %d", read, skipped)
			}
			var seg string
			mangle(t, dir, func(man *manifest) {
				seg = man.Tables[0].Segments[0].File
				tc.mangle(&man.Tables[0].Segments[0])
			})
			var err error
			spent := allocatedBy(func() { _, err = Open(dir) })
			if err == nil {
				t.Fatal("Open accepted the manifest")
			}
			for _, want := range []string{`table "t"`, seg, "page 0", tc.want} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("Open error %q does not mention %q", err, want)
				}
			}
			if spent > 1<<20 {
				t.Fatalf("a refused Open allocated %d bytes", spent)
			}
		})
	}
}

// viewOf snapshots one table of db.
func viewOf(t *testing.T, db *DB, name string) *TableView {
	t.Helper()
	snap, err := db.Snapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table(name)
	return view
}
