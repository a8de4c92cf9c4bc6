package storage

import "time"

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
