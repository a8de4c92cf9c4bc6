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
