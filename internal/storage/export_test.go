package storage

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// EncodeSerial renders rows into pages on the calling goroutine, the
// way one commit worker would, and reports how long that took: the
// write-side benchmark's measure of what cutting and encoding alone
// cost. The rows are stored as a tail first, untimed.
func EncodeSerial(cols []Column, rows []Row) time.Duration {
	chunks := tailOf(cols, rows)
	start := time.Now()
	var e chunkEncoder
	for _, page := range cutPages(len(cols), chunks) {
		e.encode(cols, page)
	}
	return time.Since(start)
}

// tailOf stores rows as InsertAll does and returns the tail's chunks.
// It panics on a row the columns reject. (The table is made by hand:
// the encoder's edge cases include a page of no columns, which newTable
// refuses.)
func tailOf(cols []Column, rows []Row) []*chunk {
	t := &Table{Name: "t", Columns: cols}
	if err := t.InsertAll(rows); err != nil {
		panic(err)
	}
	_, tail := t.capture()
	return tail
}

// encodePage renders rows as one page, stored first as InsertAll
// stores them: a page cut across the tail's chunks.
func (e *chunkEncoder) encodePage(cols []Column, rows []Row) encodedPage {
	var page []span
	for _, c := range tailOf(cols, rows) {
		page = append(page, span{c: c, hi: c.n})
	}
	return e.encode(cols, page)
}

// splitPages cuts rows into pages as a commit cuts a tail holding them
// and returns each page's row count. Each column's type is read off its
// first non-NULL value.
func splitPages(ncols int, rows []Row) []int {
	cols := make([]Column, ncols)
	for ci := range cols {
		cols[ci] = Column{Name: fmt.Sprint("c", ci), Type: "int"}
		for _, r := range rows {
			if !r[ci].IsNull() {
				cols[ci].Type = r[ci].Kind().String()
				break
			}
		}
	}
	var counts []int
	for _, page := range cutPages(ncols, tailOf(cols, rows)) {
		counts = append(counts, spanRows(page))
	}
	return counts
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
	cur := (&TableView{cols: t.Columns, pg: pg, tail: tail}).Cursor(nil)
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
