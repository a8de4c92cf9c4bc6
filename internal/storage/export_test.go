package storage

import (
	"runtime"
	"testing"
	"time"
)

// EncodeSerial renders rows into pages on the calling goroutine, the
// way one commit worker would, and reports how long that took: the
// write-side benchmark's measure of what encoding alone costs.
func EncodeSerial(cols []Column, rows []Row) time.Duration {
	start := time.Now()
	var e chunkEncoder
	first := 0
	for _, n := range splitPages(len(cols), rows) {
		e.encodePage(cols, rows[first:first+n])
		first += n
	}
	return time.Since(start)
}

// decodePage decodes every column of a page and builds its rows with
// the cursor's row builder: the row form Cursor.Next hands out, for the
// round-trip, corruption and fuzz tests.
func decodePage(cols []Column, buf []byte, n int) ([]Row, error) {
	all := make([]bool, len(cols))
	for ci := range all {
		all[ci] = true
	}
	vecs, err := decodePageVectors(cols, buf, n, all)
	if err != nil {
		return nil, err
	}
	return pageRows(vecs, n), nil
}

// ReadBatch returns the n rows from position start (fewer at the end,
// nil past it), read through a cursor over the table's current rows:
// the positional read the model checks hold the cursor to, at random
// batch sizes.
func (t *Table) ReadBatch(start, n int) []Row {
	if start < 0 || n <= 0 {
		return nil
	}
	pg, tail := t.capture()
	cur := (&TableView{pg: pg, rows: tail}).Cursor(nil)
	var out []Row
	for pos, b := 0, cur.Next(start+n); b != nil; b = cur.Next(start + n - pos) {
		out = append(out, b[min(max(start-pos, 0), len(b)):]...)
		pos += len(b)
	}
	return out
}

// setCompactSegments lowers (or raises) the auto-compaction threshold
// for the rest of the test.
func setCompactSegments(t testing.TB, n int) {
	old := compactSegments
	compactSegments = n
	t.Cleanup(func() { compactSegments = old })
}

// dropMappings unmaps the file segments of db's tables: their pages are
// read by pread from then on, the path a platform that does not map
// takes.
func dropMappings(db *DB) {
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		pg, _ := t.capture()
		if pg == nil {
			continue
		}
		for _, s := range pg.segs {
			if s.file != nil && s.data != nil {
				runtime.SetFinalizer(s, nil)
				sysMunmap(s.data)
				s.data = nil
			}
		}
	}
}
