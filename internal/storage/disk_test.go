package storage

import (
	"encoding/json"
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
	got, err := decodePage(mixedCols, ep.buf, len(rows))
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
		got, err := decodePage(cols, ep.buf, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rows[i:i+n]) {
			t.Fatalf("page %d round-trip mismatch", i)
		}
	}
	if err := directoryReadable(cols, rows); err != nil {
		t.Fatal(err)
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

// TestDiskPagedNextExactCounts walks a reopened table of two segments
// plus an unpersisted tail with Next at every batch size: each batch is
// exactly min(max, rows left in its page or the tail) — batches never
// cross a page, segment or tail boundary — and the walk returns every
// row once, in order, with the tail last.
func TestDiskPagedNextExactCounts(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, _ := db.CreateTable("t", mixedCols)
	fillMixed(t, tbl, 2500)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var more, want []Row
	for i := 2500; i < 3000; i++ {
		more = append(more, mixedRow(i))
	}
	if err := tbl.InsertAll(more); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir)
	got, _ := re.Table("t")
	if got.NumRows() != 3000 {
		t.Fatalf("NumRows = %d", got.NumRows())
	}
	if err := got.Insert(mixedRow(9001)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		want = append(want, mixedRow(i))
	}
	want = append(want, mixedRow(9001))
	snap, err := re.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("t")
	// The runs no batch may cross: every page of both segments, then
	// every chunk of the tail.
	var runs []int
	for _, s := range view.pg.segs {
		for _, pm := range s.pages {
			runs = append(runs, pm.rows)
		}
	}
	if len(view.pg.segs) != 2 || len(runs) < 3 {
		t.Fatalf("setup: %d segments, %d pages", len(view.pg.segs), len(runs))
	}
	for _, c := range view.tail {
		runs = append(runs, c.n)
	}
	for _, bs := range []int{1, 7, 512, 1024, 2999, 3001, 10000} {
		cur := view.Cursor(nil)
		var rows []Row
		for ri, run := range runs {
			for left := run; left > 0; {
				b := cur.Next(bs)
				if len(b) != min(bs, left) {
					t.Fatalf("max %d, run %d with %d rows left: Next returned %d rows", bs, ri, left, len(b))
				}
				rows = append(rows, b...)
				left -= len(b)
			}
		}
		if b := cur.Next(bs); b != nil {
			t.Fatalf("max %d: %d rows past the end", bs, len(b))
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("max %d: the walk differs from the rows written", bs)
		}
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
		rows := got.Rows()
		for i, r := range rows {
			if !reflect.DeepEqual(r, Row(mixedRow(i))) {
				t.Fatalf("walk %d row %d mismatch", walk, i)
			}
		}
		if len(rows) != 20000 {
			t.Fatalf("walk %d saw %d rows", walk, len(rows))
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
	for i, r := range collect(view.Cursor(nil)) {
		if !reflect.DeepEqual(r, Row(mixedRow(i))) {
			t.Fatalf("snapshot row %d differs after republish GC", i)
		}
	}
}

// TestAttachForeignPagerTableIsMaterialized: attaching a frozen view
// whose pager belongs to ANOTHER store's directory must copy the rows
// into local segments — a manifest naming foreign files would make
// the database unrecoverable (or, on a name collision, silently read
// the wrong bytes). A database without a directory writes no manifest:
// it refers to the view's segments and writes none of its own.
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

	heap := NewMemDB()
	if err := heap.Attach(view.Freeze()); err != nil {
		t.Fatal(err)
	}
	attached, _ := heap.Table("src")
	if attached.pg != view.pg || heap.store.nextSeg != 0 {
		t.Fatalf("a store without a directory copied the view: pager %p (view %p), %d segments written",
			attached.pg, view.pg, heap.store.nextSeg)
	}
	assertTableEqual(t, attached, src)
}

// TestPreadMatchesMmap reads a table whose segments lost their mapping
// — the path of a platform that does not map — cold, through both page
// forms.
func TestPreadMatchesMmap(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, _ := db.CreateTable("t", mixedCols)
	fillMixed(t, tbl, 3000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir)
	dropMappings(re)
	view := viewOf(t, re, "t")
	for _, s := range view.pg.segs {
		if s.data != nil {
			t.Fatal("segment still mapped")
		}
	}
	got, _ := re.Table("t")
	assertTableEqual(t, got, tbl)
	vecs := make([]*Vector, len(mixedCols))
	at := 0
	cur := view.Cursor(nil)
	for n := cur.NextVectors([]int{0, 1, 2, 3}, vecs); n > 0; n = cur.NextVectors([]int{0, 1, 2, 3}, vecs) {
		for r := 0; r < n; r++ {
			for ci, v := range vecs {
				if w := mixedRow(at + r)[ci]; !valIdentical(w, v.Value(r)) {
					t.Fatalf("row %d column %d: pread vector says %s, want %s", at+r, ci, v.Value(r), w)
				}
			}
		}
		at += n
	}
	if at != 3000 {
		t.Fatalf("vectors covered %d rows, want 3000", at)
	}
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
	tbl.Rows()
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

// TestFloatImageIntBoundsSkipNoRow: segments written before ints had an
// exact order hold int zone bounds picked by their float64 image — the
// first of several ints sharing the least (greatest) image, which need
// not be the least (greatest) int. Reopened with such bounds, a cursor
// skips no page holding a row the predicate accepts.
func TestFloatImageIntBoundsSkipNoRow(t *testing.T) {
	const two53 = int64(1) << 53
	// Images -2⁵³, -2⁵³, 2⁵³, 2⁵³, 2⁵³+4, 2⁵³+4: by image the least is
	// the first, -2⁵³, though -2⁵³-1 is less, and the greatest 2⁵³+3,
	// though 2⁵³+4 is greater.
	vals := []int64{-two53, -two53 - 1, two53 + 1, two53, two53 + 3, two53 + 4}
	lo, hi := -two53, two53+3
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", []Column{{Name: "x", Type: "int"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := tbl.Insert(Row{expr.Int(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man, _, err := mf.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	pages := 0
	for _, seg := range man.Tables[0].Segments {
		for _, p := range seg.Pages {
			p.Zones[0].Min, p.Zones[0].Max = &mf.Value{I: &lo}, &mf.Value{I: &hi}
			pages++
		}
	}
	if pages != 1 {
		t.Fatalf("%d pages, want the rows on one", pages)
	}
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.Commit(dir, data); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("t")
	for _, v := range vals {
		for _, lit := range []expr.Value{expr.Int(v - 1), expr.Int(v), expr.Int(v + 1), expr.Float(float64(v))} {
			for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
				pred := expr.MustParse("x " + op + " lit")
				accepts := func(rows []Row) (n int) {
					for _, row := range rows {
						if ok, _ := expr.EvalBool(pred, expr.MapEnv(map[string]expr.Value{"x": row[0], "lit": lit})); ok {
							n++
						}
					}
					return n
				}
				want := accepts(view.Cursor(nil).Next(len(vals)))
				if got := accepts(view.Cursor([]PrunePredicate{{Col: "x", Op: op, Val: lit}}).Next(len(vals))); got != want {
					t.Errorf("x %s %s: the pruning cursor yields %d accepted rows, the full scan %d", op, lit, got, want)
				}
			}
		}
	}
}
