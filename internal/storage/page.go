package storage

// Paged columnar encoding of the segment store (see disk.go for the
// segment/manifest machinery and docs/ARCHITECTURE.md for the format
// spec).
//
// A segment is an array of pages. Each page holds a run of whole rows
// laid out column-by-column, in format 2 (the manifest's format field):
//
//	page  := u32 rowCount, chunk[0], ..., chunk[ncols-1], padding
//	chunk := u32 chunkLen, u8 encoding tag, body (see encoding.go:
//	         raw, dictionary, run-length or bit-packed)
//
// Pages are variable-size, zero-padded to a pageBlock (4 KiB) multiple
// so compression actually shrinks the file while offsets stay
// block-aligned (mmap-friendly).
//
// Raw values encode by column type: int as 8-byte little-endian two's
// complement, float as the 8-byte little-endian IEEE-754 bit pattern
// (NaNs, infinities and -0 round-trip exactly), bool as one byte,
// string as u32 length + UTF-8 bytes. Pages are still split by their
// RAW encoded size (cutPages), so a page's decoded vectors cost about
// pageSize of memory no matter how well it compressed. Because the
// engine's type checker normalises values on the way into a table (ints
// widen to float in float columns), decoding reproduces the stored
// expr.Values byte-identically.

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"
)

// pageSize is the decoded page capacity: cutPages bounds each
// page's RAW encoding to it.
const pageSize = 64 << 10

// pageBlock is the alignment of pages within a segment: each encoded
// page is zero-padded to a pageBlock multiple.
const pageBlock = 4096

// pageCacheBytes bounds the decoded pages kept resident per store
// (the "buffer pool"); a variable so tests can shrink it to force
// eviction. An entry is charged the memory of the column vectors it
// holds (Vector.memSize) — what the pool keeps, whoever reads it — so
// a warehouse larger than the pool streams instead of residing.
var pageCacheBytes = 256 << 20

// pageOverhead is the fixed cost of a page holding n rows of ncols
// columns: the row-count word plus each chunk's length word and
// presence bitmap.
func pageOverhead(ncols, n int) int {
	return 4 + ncols*(4+(n+7)/8)
}

// encodedPage is one rendered format-2 page plus the write-time
// metadata the manifest's page directory records alongside it.
type encodedPage struct {
	buf   []byte // padded to a pageBlock multiple
	zones []zone // one per column
	raw   int    // raw encoded size (every chunk raw), recorded in the manifest
}

// TestingForceRaw disables compressed encodings (every chunk encodes
// raw) so tests and benchmarks can measure compression win. Never set
// outside tests.
var TestingForceRaw bool

// encode renders one page — the rows of a run of tail-chunk spans — in
// format 2: each column is read into the encoder's vector by the pass
// that also gathers its statistics, the smallest candidate encoding is
// chosen from them, the body is written from the vector, and the page's
// zone map is what the same pass saw.
func (e *chunkEncoder) encode(cols []Column, page []span) encodedPage {
	n := spanRows(page)
	ep := encodedPage{
		zones: make([]zone, len(cols)),
		raw:   pageOverhead(len(cols), n),
	}
	// The page is assembled in the encoder's scratch and copied out at
	// its padded size: a commit holds every page it renders until the
	// segments are written, so none should carry append's slack.
	buf := binary.LittleEndian.AppendUint32(e.pageBuf[:0], uint32(n))
	for ci, c := range cols {
		e.build(page, ci, c.Type)
		ep.zones[ci] = e.zone
		ep.raw += e.rawBytes
		enc := encRaw
		if !TestingForceRaw {
			enc = chooseEncoding(c.Type, &e.chunkStats)
		}
		chunkAt := len(buf)
		buf = append(buf, 0, 0, 0, 0) // chunk length, patched below
		buf = e.appendBody(append(buf, byte(enc)), enc)
		binary.LittleEndian.PutUint32(buf[chunkAt:], uint32(len(buf)-chunkAt-4))
	}
	e.pageBuf = buf
	ep.buf = make([]byte, (len(buf)+pageBlock-1)/pageBlock*pageBlock)
	copy(ep.buf, buf)
	return ep
}

// pageChunks walks a page's frame: it checks the header's row count
// against want — the manifest's count for the page, which bounds every
// allocation made while decoding it — and calls fn with each column's
// chunk body and encoding tag, in column order.
func pageChunks(cols []Column, buf []byte, want int, fn func(ci, enc int, body []byte) error) error {
	if len(buf) < 4 {
		return fmt.Errorf("page shorter than header")
	}
	if n := binary.LittleEndian.Uint32(buf); uint64(n) != uint64(want) {
		return fmt.Errorf("page header says %d rows, manifest says %d", n, want)
	}
	pos := 4
	for ci, c := range cols {
		if pos+4 > len(buf) {
			return fmt.Errorf("column %q chunk header truncated", c.Name)
		}
		chunkLen := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		if chunkLen > len(buf)-pos {
			return fmt.Errorf("column %q chunk truncated", c.Name)
		}
		chunk := buf[pos : pos+chunkLen]
		pos += chunkLen
		if len(chunk) < 1 {
			return fmt.Errorf("column %q chunk missing encoding tag", c.Name)
		}
		if err := fn(ci, int(chunk[0]), chunk[1:]); err != nil {
			return fmt.Errorf("column %q: %w", c.Name, err)
		}
	}
	return nil
}

// decodePageVectors decodes the chunks of the columns for which
// want[ci] is set into fresh vectors (the others stay nil).
func decodePageVectors(cols []Column, buf []byte, n int, want []bool) ([]*Vector, error) {
	vecs := make([]*Vector, len(cols))
	err := pageChunks(cols, buf, n, func(ci, enc int, body []byte) error {
		if !want[ci] {
			return nil
		}
		vecs[ci] = &Vector{}
		return decodeChunk(enc, body, n, cols[ci].Type, vecs[ci])
	})
	if err != nil {
		return nil, err
	}
	return vecs, nil
}

// pageKey identifies a decoded page in the buffer pool. Keying on the
// segment pointer (not its file name) means a dropped segment's
// entries can never be confused with a later segment reusing the id.
type pageKey struct {
	seg  *segment
	page int
}

// pageEntry is one page's residency in the buffer pool: one vector
// per column, each decoded the first time a reader asks for it (the
// vector readers ask only for the columns a query reads; Cursor.Next
// asks for all of them and builds its rows from them). Vectors are
// immutable once stored.
type pageEntry struct {
	key  pageKey
	vecs []*Vector // per column; nil where no reader asked yet
	size int       // charged bytes: the sum of the vectors' memSize
}

// pageCache is the store's buffer pool: an LRU of decoded pages under
// a byte budget. Vectors are shared — an evicted page's vectors stay
// valid for whoever still holds them.
type pageCache struct {
	mu   sync.Mutex
	cap  int // byte budget
	used int
	m    map[pageKey]*list.Element
	lru  *list.List // front = most recently used
}

func newPageCache(capacityBytes int) *pageCache {
	if capacityBytes < pageSize {
		capacityBytes = pageSize
	}
	return &pageCache{cap: capacityBytes, m: map[pageKey]*list.Element{}, lru: list.New()}
}

// vectors fills out[i] with the resident vector of column cols[i] (nil
// where there is none) and reports whether every one was resident.
func (c *pageCache) vectors(k pageKey, cols []int, out []*Vector) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(out)
	el, ok := c.m[k]
	if !ok {
		return false
	}
	c.lru.MoveToFront(el)
	vecs := el.Value.(*pageEntry).vecs
	all := true
	for i, ci := range cols {
		out[i] = vecs[ci]
		all = all && out[i] != nil
	}
	return all
}

// putVectors stores the non-nil vectors (indexed by column) beside
// the page's resident ones, each charged its memory size; a vector
// already resident stays (a racing reader decoded it too) and is not
// charged twice. It then evicts from the cold end until the pool is
// within budget; the most recent entry always stays (an oversize page
// larger than the whole budget would otherwise thrash on every touch).
func (c *pageCache) putVectors(k pageKey, vecs []*Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ent *pageEntry
	if el, ok := c.m[k]; ok {
		c.lru.MoveToFront(el)
		ent = el.Value.(*pageEntry)
	} else {
		ent = &pageEntry{key: k, vecs: make([]*Vector, len(vecs))}
		c.m[k] = c.lru.PushFront(ent)
	}
	for ci, v := range vecs {
		if v != nil && ent.vecs[ci] == nil {
			ent.vecs[ci] = v
			ent.size += v.memSize()
			c.used += v.memSize()
		}
	}
	for c.used > c.cap && c.lru.Len() > 1 {
		el := c.lru.Back()
		c.lru.Remove(el)
		old := el.Value.(*pageEntry)
		delete(c.m, old.key)
		c.used -= old.size
	}
}

// purge drops every entry whose segment fails keep. Cached entries
// pin their segment object — and with it the segment's open file
// descriptor — so after a republish unlinks old segments their pages
// must leave the pool: under the byte budget nothing would ever evict
// them, and a long-running replace-heavy server would accumulate
// dead fds until EMFILE. (A snapshot still reading a dead segment
// re-caches its pages; the next commit's purge drops them again —
// bounded churn, no leak.)
func (c *pageCache) purge(keep func(*segment) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*pageEntry)
		if keep(ent.key.seg) {
			continue
		}
		c.lru.Remove(el)
		delete(c.m, ent.key)
		c.used -= ent.size
	}
}
