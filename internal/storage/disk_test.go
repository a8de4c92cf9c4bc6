package storage

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"quarry/internal/expr"
	mf "quarry/internal/storage/manifest"
)

// mixedCols exercises every column type plus NULLs.
var mixedCols = []Column{
	{Name: "i", Type: "int"},
	{Name: "f", Type: "float"},
	{Name: "s", Type: "string"},
	{Name: "b", Type: "bool"},
}

func mixedRow(i int) Row {
	if i%7 == 3 {
		return Row{expr.Null(), expr.Null(), expr.Null(), expr.Null()}
	}
	f := float64(i) * 1.25
	if i%11 == 5 {
		f = math.Inf(1)
	}
	return Row{
		expr.Int(int64(i)),
		expr.Float(f),
		expr.Str(strings.Repeat("v", i%13) + "·row"),
		expr.Bool(i%2 == 0),
	}
}

func TestPageRoundTrip(t *testing.T) {
	var rows []Row
	for i := 0; i < 500; i++ {
		rows = append(rows, mixedRow(i))
	}
	ep := encodePage(mixedCols, rows)
	if len(ep.buf)%pageBlock != 0 {
		t.Fatalf("page not padded to pageBlock multiple: %d", len(ep.buf))
	}
	if len(ep.zones) != len(mixedCols) {
		t.Fatalf("page has %d zone entries, want %d", len(ep.zones), len(mixedCols))
	}
	if ep.raw <= 0 {
		t.Fatalf("page raw size %d, want > 0", ep.raw)
	}
	got, err := decodePage(manifestFormatV2, mixedCols, ep.buf, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("decoded page differs from input")
	}
	// The float column holds +Inf rows: its zone entry must carry no
	// bounds (Compare treats NaN/Inf unsafely for pruning).
	if ep.zones[1].hasBounds {
		t.Fatal("float column with +Inf rows still has zone bounds")
	}
	if !ep.zones[0].hasBounds {
		t.Fatal("int column lost its zone bounds")
	}
}

func TestSplitPagesOversizeRow(t *testing.T) {
	cols := []Column{{Name: "s", Type: "string"}}
	rows := []Row{
		{expr.Str("small")},
		{expr.Str(strings.Repeat("x", 2*pageSize))}, // alone exceeds a page
		{expr.Str("small2")},
	}
	counts := splitPages(1, rows)
	if !reflect.DeepEqual(counts, []int{1, 1, 1}) {
		t.Fatalf("splitPages = %v, want [1 1 1]", counts)
	}
	for i, n := range counts {
		ep := encodePage(cols, rows[i:i+n])
		if len(ep.buf)%pageBlock != 0 {
			t.Fatalf("oversize page %d not padded to multiple: %d", i, len(ep.buf))
		}
		got, err := decodePage(manifestFormatV2, cols, ep.buf, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rows[i:i+n]) {
			t.Fatalf("page %d round-trip mismatch", i)
		}
	}
}

// openDisk opens a disk DB and fails the test on error.
func openDisk(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func fillMixed(t *testing.T, tbl *Table, n int) {
	t.Helper()
	var rows []Row
	for i := 0; i < n; i++ {
		rows = append(rows, mixedRow(i))
	}
	if err := tbl.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
}

func assertTableEqual(t *testing.T, got, want *Table) {
	t.Helper()
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("columns differ: %v vs %v", got.Columns, want.Columns)
	}
	if !reflect.DeepEqual(got.Rows(), want.Rows()) {
		t.Fatalf("table %q rows differ after reopen", got.Name)
	}
}

// TestDiskReopenRoundTrip is the backbone: create, checkpoint, reopen,
// byte-identical, with a row count spanning several pages.
func TestDiskReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, err := db.CreateTable("t", mixedCols)
	if err != nil {
		t.Fatal(err)
	}
	fillMixed(t, tbl, 5000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v := db.Version()

	re := openDisk(t, dir)
	if re.Version() != v {
		t.Fatalf("reopened version %d, want %d", re.Version(), v)
	}
	got, ok := re.Table("t")
	if !ok {
		t.Fatal("table lost on reopen")
	}
	assertTableEqual(t, got, tbl)
}

func TestDiskPagedReadBatchExactCounts(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, _ := db.CreateTable("t", mixedCols)
	fillMixed(t, tbl, 3000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir)
	got, _ := re.Table("t")
	if got.NumRows() != 3000 {
		t.Fatalf("NumRows = %d", got.NumRows())
	}
	// Unpersisted tail on top of the paged base.
	if err := got.Insert(mixedRow(9001)); err != nil {
		t.Fatal(err)
	}
	// Exact batch lengths at every offset, including ranges crossing
	// page boundaries and the paged-base/tail boundary.
	for _, bs := range []int{1, 7, 512, 1024, 2999, 3001, 10000} {
		pos := 0
		for {
			b := got.ReadBatch(pos, bs)
			if b == nil {
				break
			}
			wantLen := bs
			if pos+bs > 3001 {
				wantLen = 3001 - pos
			}
			if len(b) != wantLen {
				t.Fatalf("ReadBatch(%d, %d) returned %d rows, want %d", pos, bs, len(b), wantLen)
			}
			pos += len(b)
		}
		if pos != 3001 {
			t.Fatalf("batch size %d walked %d rows, want 3001", bs, pos)
		}
	}
	if !reflect.DeepEqual(got.ReadBatch(2999, 2)[1], Row(mixedRow(9001))) {
		t.Fatal("tail row not readable past the paged base")
	}
}

func TestDiskPageCacheEviction(t *testing.T) {
	old := pageCacheBytes
	pageCacheBytes = 2 * pageSize // force constant eviction
	defer func() { pageCacheBytes = old }()

	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, _ := db.CreateTable("t", mixedCols)
	fillMixed(t, tbl, 20000) // many pages
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir)
	got, _ := re.Table("t")
	// Two full walks: the second re-decodes evicted pages.
	for walk := 0; walk < 2; walk++ {
		i := 0
		err := got.Scan(func(r Row) error {
			if !reflect.DeepEqual(r, Row(mixedRow(i))) {
				t.Fatalf("walk %d row %d mismatch", walk, i)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != 20000 {
			t.Fatalf("walk %d saw %d rows", walk, i)
		}
	}
}

func TestDiskCommitRunPublishAndAppend(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	live, _ := db.CreateTable("live", []Column{{Name: "x", Type: "int"}})
	if err := live.Insert(Row{expr.Int(1)}); err != nil {
		t.Fatal(err)
	}

	staged, _ := NewStagingTable("fresh", []Column{{Name: "y", Type: "string"}})
	if err := staged.Insert(Row{expr.Str("a")}); err != nil {
		t.Fatal(err)
	}
	delta, _ := NewStagingTable("live", []Column{{Name: "x", Type: "int"}})
	if err := delta.Insert(Row{expr.Int(2)}); err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	if err := db.CommitRun([]*Table{staged}, []AppendDelta{{Target: live, Delta: delta}}); err != nil {
		t.Fatal(err)
	}
	if db.Version() != v+1 {
		t.Fatalf("version %d, want %d", db.Version(), v+1)
	}
	if live.NumRows() != 2 {
		t.Fatalf("append not merged: %d rows", live.NumRows())
	}

	re := openDisk(t, dir)
	reLive, _ := re.Table("live")
	reFresh, ok := re.Table("fresh")
	if !ok {
		t.Fatal("published table lost on reopen")
	}
	assertTableEqual(t, reLive, live)
	assertTableEqual(t, reFresh, staged)
	if re.Version() != v+1 {
		t.Fatalf("reopened version %d, want %d", re.Version(), v+1)
	}
}

// TestDiskSnapshotSurvivesRepublishAndGC proves a snapshot keeps
// reading its version after a republish deletes the old segments.
func TestDiskSnapshotSurvivesRepublishAndGC(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, _ := db.CreateTable("t", mixedCols)
	fillMixed(t, tbl, 2000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	// Republish with different rows: old segments become unreferenced
	// and are unlinked by the commit's GC.
	staged, _ := NewStagingTable("t", mixedCols)
	if err := staged.Insert(mixedRow(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Publish(staged); err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("t")
	if view.NumRows() != 2000 {
		t.Fatalf("snapshot sees %d rows", view.NumRows())
	}
	for i, r := range view.ReadBatch(0, 2000) {
		if !reflect.DeepEqual(r, Row(mixedRow(i))) {
			t.Fatalf("snapshot row %d differs after republish GC", i)
		}
	}
}

func TestDiskDropAndTruncatePersist(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	a, _ := db.CreateTable("a", mixedCols)
	fillMixed(t, a, 100)
	b, _ := db.CreateTable("b", mixedCols)
	fillMixed(t, b, 100)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("a"); err != nil {
		t.Fatal(err)
	}
	b.Truncate()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir)
	if _, ok := re.Table("a"); ok {
		t.Fatal("dropped table resurrected")
	}
	rb, ok := re.Table("b")
	if !ok || rb.NumRows() != 0 {
		t.Fatalf("truncate not persisted: ok=%v rows=%d", ok, rb.NumRows())
	}
	// The dropped table's segments must be gone from disk.
	entries, _ := os.ReadDir(dir)
	var segs int
	for _, e := range entries {
		if _, ok := mf.SegmentID(e.Name()); ok {
			segs++
		}
	}
	if segs != 0 {
		t.Fatalf("%d segment files remain after drop+truncate", segs)
	}
}

// TestAttachForeignPagerTableIsMaterialized: attaching a frozen view
// whose pager belongs to ANOTHER store's directory must copy the rows
// into local segments — a manifest naming foreign files would make
// the database unrecoverable (or, on a name collision, silently read
// the wrong bytes).
func TestAttachForeignPagerTableIsMaterialized(t *testing.T) {
	db1 := openDisk(t, t.TempDir())
	src, err := db1.CreateTable("src", mixedCols)
	if err != nil {
		t.Fatal(err)
	}
	fillMixed(t, src, 1500)
	if err := db1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := db1.Snapshot("src")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("src")

	dir2 := t.TempDir()
	db2 := openDisk(t, dir2)
	if err := db2.Attach(view.Freeze()); err != nil {
		t.Fatal(err)
	}
	// The commit must have produced LOCAL segments for dir2.
	if got := countSegs(t, dir2); got == 0 {
		t.Fatal("attach committed no local segments for the foreign-backed table")
	}
	// Reopen dir2 cold: the attached table must be fully recoverable.
	re := openDisk(t, dir2)
	got, ok := re.Table("src")
	if !ok {
		t.Fatal("attached table lost on reopen")
	}
	assertTableEqual(t, got, src)
}

// TestRepublishPurgesDeadSegmentPages: after a republish
// garbage-collects old segments, their decoded pages must leave the
// buffer pool — cached entries pin the dead segments' open file
// descriptors, and under the byte budget nothing else would ever
// evict them.
func TestRepublishPurgesDeadSegmentPages(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, _ := db.CreateTable("t", mixedCols)
	fillMixed(t, tbl, 2000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Populate the pool and note the now-live segment names.
	tbl.ReadBatch(0, 2000)
	tbl.mu.RLock()
	old := map[string]bool{}
	for _, s := range tbl.pg.segs {
		old[s.name] = true
	}
	tbl.mu.RUnlock()
	if len(old) == 0 {
		t.Fatal("setup: no segments")
	}

	staged, _ := NewStagingTable("t", mixedCols)
	if err := staged.Insert(mixedRow(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Publish(staged); err != nil {
		t.Fatal(err)
	}

	c := db.store.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.m {
		if old[k.seg.name] {
			t.Fatalf("dead segment %s still has cached pages (pins its fd)", k.seg.name)
		}
	}
}

func TestDiskManifestIsCommitPoint(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, _ := db.CreateTable("t", mixedCols)
	fillMixed(t, tbl, 10)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestTmp)); !os.IsNotExist(err) {
		t.Fatalf("manifest.tmp left behind: %v", err)
	}
}
