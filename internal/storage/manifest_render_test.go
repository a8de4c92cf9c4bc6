package storage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quarry/internal/expr"
	mf "quarry/internal/storage/manifest"
)

// checkManifestBytes holds dir's manifest.json to what
// json.MarshalIndent makes of its parsed form: the bytes a commit
// assembles from segment entries rendered once are the bytes rendering
// the whole catalog would write.
func checkManifestBytes(t *testing.T, what, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var m mf.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s: manifest.json is not json.MarshalIndent of itself:\n%s\nwant\n%s", what, data, want)
	}
}

// TestManifestBytesMatchMarshalIndent commits every shape a commit
// takes — Checkpoint, Publish, a compaction, an Attach that
// materialises a foreign table, a commit after Reload — over tables
// with no segments, zones without bounds (infinities, long strings,
// NULL columns) and names JSON must escape.
func TestManifestBytesMatchMarshalIndent(t *testing.T) {
	setCompactSegments(t, 3)
	dir := t.TempDir()
	db := openDisk(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	escaped := "q\"uote\\<b>& é\t"
	tbl, err := db.CreateTable(escaped, []Column{{Name: "i", Type: "int"}, {Name: "ä<&>\"", Type: "string"}, {Name: "f", Type: "float"}})
	must(err)
	checkManifestBytes(t, "a table with no segments", dir)
	long := strings.Repeat("x", 2*zoneMaxStr)
	for i := range 300 {
		row := Row{expr.Int(int64(i)), expr.Str(long), expr.Null()}
		if i%2 == 0 {
			row[2] = expr.Float(0.5)
		}
		must(tbl.Insert(row))
	}
	must(db.Checkpoint())
	checkManifestBytes(t, "Checkpoint", dir)

	mixed, err := db.CreateTable("mixed", mixedCols)
	must(err)
	_, err = db.CreateTable("never filled", mixedCols)
	must(err)
	for round := range 4 { // past the compaction threshold
		fillMixed(t, mixed, 200+round)
		must(db.Checkpoint())
		checkManifestBytes(t, "Checkpoint and compaction", dir)
	}

	staged, err := NewStagingTable("published", mixedCols)
	must(err)
	fillMixed(t, staged, 900)
	must(db.Publish(staged))
	checkManifestBytes(t, "Publish", dir)

	other := NewMemDB()
	src, err := other.CreateTable("attached", mixedCols)
	must(err)
	fillMixed(t, src, 700)
	snap, err := other.Snapshot("attached")
	must(err)
	view, _ := snap.Table("attached")
	must(db.Attach(view.Freeze()))
	checkManifestBytes(t, "Attach", dir)

	// A replica adopts the primary's files and reloads them; its next
	// commit names the segments it carried over.
	replica := t.TempDir()
	rdb := openDisk(t, replica)
	entries, err := os.ReadDir(dir)
	must(err)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		must(err)
		must(os.WriteFile(filepath.Join(replica, e.Name()), data, 0o644))
	}
	must(rdb.Reload())
	rt, ok := rdb.Table("mixed")
	if !ok {
		t.Fatal("reload lost table mixed")
	}
	fillMixed(t, rt, 50)
	must(rdb.Checkpoint())
	checkManifestBytes(t, "a commit after Reload", replica)
	must(rdb.Reload())
	checkManifestBytes(t, "Reload", replica)
}
