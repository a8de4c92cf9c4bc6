package storage

// Per-chunk compressed encodings for format-2 pages (see page.go for
// the page frame and docs/ARCHITECTURE.md for the spec). Each column
// chunk of a page is encoded independently, picked by a single stats
// pass over the chunk's values at write time:
//
//	encRaw      presence bitmap + raw values
//	encDict     dictionary: distinct values once + bit-packed codes
//	            (string and int columns)
//	encRLE      run-length: exact-equality runs of values or NULLs
//	encBitPack  frame-of-reference bit-packing (int columns): min as
//	            the base, per-value deltas at the narrowest width
//
// The pass also derives the page's zone map: per-column null count
// and min/max bounds (in expr.Value.Compare's order, the one the filter
// evaluator uses, so pruning is conservative by construction). Bounds
// are withheld for columns whose chunk contains a non-finite float —
// Compare treats NaN as equal to everything, so no bound excludes it
// (and NaN/Inf would not survive the JSON manifest) — or an over-long
// string (manifest bloat).
//
// Encoding and decoding meet in the Vector (vector.go), the typed
// columnar form closest to every encoding. The write side
// (chunkEncoder) reads a page's column out of the tail chunks it was
// cut from into one vector — the stats pass is that read — and writes
// the chosen body from it; the read side decodes a body into one.
//
// Every encoding round-trips values bit-exactly: floats compare and
// deduplicate by their IEEE-754 bit pattern (NaN payloads and -0
// survive), strings by content. Decoding therefore reproduces the
// stored expr.Values byte-identically.
//
// There is one set of decoders, and it decodes a chunk to a Vector
// (vector.go), the form closest to every encoding: a dictionary chunk
// keeps its codes, a run-length chunk repeats a value, a bit-packed
// chunk adds its base. A page's rows are built from those vectors
// (pageRows, for Cursor.Next). Chunk bytes are untrusted: every decoder is handed the
// page's row count from the manifest and produces exactly that many
// rows or an error — never more, whatever counts the bytes claim.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"quarry/internal/expr"
)

// Chunk encoding tags (the first body byte of a format-2 chunk).
const (
	encRaw     = 0
	encDict    = 1
	encRLE     = 2
	encBitPack = 3
)

// dictMaxCard caps the distinct values tracked per chunk; past it the
// chunk is not a dictionary candidate (the stats pass stops counting).
const dictMaxCard = 4096

// zoneMaxStr is the longest string stored as a zone bound; chunks
// holding longer strings get no bounds (the manifest would bloat).
const zoneMaxStr = 128

// zone is one column's zone-map entry for one page: how many of the
// page's rows are NULL in this column, and — when hasBounds — the
// min/max of the non-NULL values under expr.Value.Compare: an int
// column's exact least and greatest ints.
type zone struct {
	nulls     int
	hasBounds bool
	min, max  expr.Value
}

// chunkStats is what the single pass over one column chunk learns:
// enough to size every candidate encoding and to fill the page's
// zone-map entry.
type chunkStats struct {
	n        int
	nulls    int
	rawBytes int // value bytes of the present rows
	runBytes int // exact size of the encRLE body

	dictable  bool // string and int chunks, until dictMaxCard is passed
	ndict     int  // distinct values met while dictable
	dictBytes int  // value bytes of those distinct values

	intMin, intMax int64 // int columns, present rows only

	zone zone
}

// chunkEncoder is the write-side mirror of the chunk decoders: build
// reads one column of a page — a run of spans of tail chunks, typed
// vectors all — into a Vector of the page's own (ints to []int64,
// floats to []float64, strings and bools to codes plus a first-seen
// dictionary, NULLs to the bitmap) and gathers chunkStats in the same
// typed pass; appendBody then writes whichever encoding was chosen from
// the vector. Nothing is hashed twice: a dictionary body's codes are
// the codes the pass assigned, and a string is hashed once per entry of
// a source dictionary the page refers to, not once per row.
//
// A chunkEncoder is scratch. build reuses its buffers, so one encoder
// serves every column of every page a commit worker renders; it must
// not be shared between goroutines.
type chunkEncoder struct {
	vec Vector
	chunkStats

	// The dictionary candidate of an int chunk: a code per row (zero on
	// NULL rows) and the distinct values in first-seen order. A string
	// chunk's candidate is vec.Codes and vec.Dict[:ndict] themselves.
	intCodes []uint32
	intDict  []int64
	intWin   []uint32 // buildInts' window over a dense page's values, all zero between pages

	// seenInts and seenStrs find a value's code in the dictionary
	// candidate of the column being built: one map per column position,
	// which its build clears. clear pays for a map's whole grown
	// capacity, so with one map for every column a column of few values
	// paid, on every page, for the capacity the widest column had grown.
	seenInts []map[int64]uint32
	seenStrs []map[string]uint32
	// remap translates the codes of the source dictionary being read
	// into page codes: entry c holds the page code + 1, 0 until the page
	// first meets c. Entries are cleared after each source dictionary
	// through touched, so the array is all zero between uses.
	remap   []uint32
	touched []uint32
	dictBuf []expr.Value // vec.Dict's backing array between chunks
	pageBuf []byte       // where encode assembles a page before sizing it
}

// build scans column ci of the page's spans once, leaving the column in
// e.vec and its statistics in e.chunkStats. The spans' vectors are in
// the column's stored form (tail.go).
func (e *chunkEncoder) build(page []span, ci int, typ string) {
	n := spanRows(page)
	if err := e.vec.reset(typ, n); err != nil {
		panic("storage: " + err.Error()) // column types are validated at table creation
	}
	e.chunkStats = chunkStats{n: n}
	switch e.vec.Kind {
	case expr.KindInt:
		e.buildInts(page, ci)
	case expr.KindFloat:
		e.buildFloats(page, ci)
	case expr.KindString:
		e.buildStrings(page, ci)
	default:
		e.buildBools(page, ci)
	}
	e.zone.nulls = e.nulls
}

// A run, for the run-length size, is a maximal stretch of NULLs or of
// bit-identical values; each costs a u32 count and a flag byte, plus
// the value when there is one.
const runHeader = 4 + 1

// null appends a NULL row and accounts for the run it starts or
// extends. (The builders start with prevNull false, so a leading NULL
// starts one.)
func (e *chunkEncoder) null(prevNull bool) {
	e.vec.appendNull(e.n)
	e.nulls++
	if !prevNull {
		e.runBytes += runHeader
	}
}

// buildInts codes the page's ints in first-seen order. A first pass
// finds the present values' bounds; where they span a small multiple
// of the page's rows (denseInts), a value finds its code + 1 in the
// encoder's window at its offset from the least, which the page's
// dictionary clears after it. A wider page looks its values up in the
// column's map.
func (e *chunkEncoder) buildInts(page []span, ci int) {
	v := &e.vec
	present := false
	for _, s := range page {
		src := s.c.cols[ci]
		for r := s.lo; r < s.hi; r++ {
			switch {
			case src.IsNull(r):
			case !present:
				e.intMin, e.intMax, present = src.Ints[r], src.Ints[r], true
			default:
				e.intMin, e.intMax = min(e.intMin, src.Ints[r]), max(e.intMax, src.Ints[r])
			}
		}
	}
	var win []uint32 // value k's code + 1 at win[k − intMin]
	var seen map[int64]uint32
	if span := uint64(e.intMax - e.intMin); present && denseInts(span, e.n) {
		if uint64(cap(e.intWin)) <= span {
			e.intWin = make([]uint32, span+1)
		}
		win = e.intWin[:span+1]
	} else {
		for len(e.seenInts) <= ci {
			e.seenInts = append(e.seenInts, map[int64]uint32{})
		}
		seen = e.seenInts[ci]
		clear(seen)
	}
	dict := e.intDict[:0]
	codes := slices.Grow(e.intCodes[:0], e.n)
	e.dictable = true
	var prev int64
	prevNull := false
	for _, s := range page {
		src := s.c.cols[ci]
		for r := s.lo; r < s.hi; r++ {
			if src.IsNull(r) {
				e.null(prevNull)
				codes = append(codes, 0)
				prevNull = true
				continue
			}
			i := src.Ints[r]
			newRun := len(codes) == 0 || prevNull || i != prev
			if newRun {
				e.runBytes += runHeader + 8
			}
			prev, prevNull = i, false
			v.Ints = append(v.Ints, i)
			code := uint32(0)
			if !newRun { // a run shares its first row's code, unhashed
				code = codes[len(codes)-1]
			} else if e.dictable {
				var ok bool
				if win != nil {
					code, ok = win[i-e.intMin]-1, win[i-e.intMin] != 0
				} else {
					code, ok = seen[i]
				}
				switch {
				case ok:
				case len(dict) >= dictMaxCard:
					e.dictable = false
				default:
					code = uint32(len(dict))
					if win != nil {
						win[i-e.intMin] = code + 1
					} else {
						seen[i] = code
					}
					dict = append(dict, i)
				}
			}
			codes = append(codes, code)
		}
	}
	if win != nil {
		for _, i := range dict { // leave the window all zero
			win[i-e.intMin] = 0
		}
	}
	e.intCodes, e.intDict = codes, dict
	e.rawBytes = 8 * (e.n - e.nulls)
	e.ndict, e.dictBytes = len(dict), 8*len(dict)
	if present {
		e.zone = zone{hasBounds: true, min: expr.Int(e.intMin), max: expr.Int(e.intMax)}
	}
}

// denseInts reports whether a page's n rows of ints spanning span code
// through a window: it costs a few slots per row.
func denseInts(span uint64, n int) bool { return span < 8*uint64(n)+1024 }

func (e *chunkEncoder) buildFloats(page []span, ci int) {
	v := &e.vec
	var prev uint64
	var lo, hi float64
	prevNull, finite := false, true
	for _, s := range page {
		src := s.c.cols[ci]
		for r := s.lo; r < s.hi; r++ {
			if src.IsNull(r) {
				e.null(prevNull)
				prevNull = true
				continue
			}
			f := src.Floats[r]
			b := math.Float64bits(f)
			if len(v.Floats) == 0 || prevNull || b != prev {
				e.runBytes += runHeader + 8
			}
			switch {
			case math.IsNaN(f) || math.IsInf(f, 0):
				finite = false
			case len(v.Floats) == e.nulls: // first present value
				lo, hi = f, f
			case f < lo: // -0 and +0 compare equal: the first met stays
				lo = f
			case f > hi:
				hi = f
			}
			prev, prevNull = b, false
			v.Floats = append(v.Floats, f)
		}
	}
	present := e.n - e.nulls
	e.rawBytes = 8 * present
	if finite && present > 0 {
		e.zone = zone{hasBounds: true, min: expr.Float(lo), max: expr.Float(hi)}
	}
}

// buildStrings codes the page's strings in first-seen order. While the
// chunk is a dictionary candidate, page codes stand for distinct
// strings, so a run is a stretch of one code; a source code is
// translated through remap, and only its first meeting hashes the
// string (dictCode). Past dictMaxCard distinct strings the chunk is no
// candidate and stops deduplicating: every further run is its own entry
// (a Vector's dictionary may repeat), found by comparing each row with
// the one before. Either way every present value is in the dictionary
// and every entry is present, so the zone bounds are the dictionary's.
func (e *chunkEncoder) buildStrings(page []span, ci int) {
	v := &e.vec
	for len(e.seenStrs) <= ci {
		e.seenStrs = append(e.seenStrs, map[string]uint32{})
	}
	seen := e.seenStrs[ci]
	clear(seen)
	v.Dict = e.dictBuf[:0]
	e.dictable = true
	prevNull := false
	var from []expr.Value // the source dictionary remap translates
	for _, sp := range page {
		src := sp.c.cols[ci]
		if !sameDict(src.Dict, from) {
			e.forget()
			from = src.Dict
			if len(e.remap) < len(from) {
				e.remap = make([]uint32, len(from))
			}
		}
		for r := sp.lo; r < sp.hi; r++ {
			if src.IsNull(r) {
				e.null(prevNull)
				prevNull = true
				continue
			}
			x := &from[src.Codes[r]]
			size := 4 + len(x.AsString())
			e.rawBytes += size
			last := len(v.Codes) - 1
			if e.dictable {
				if code, ok := e.dictCode(seen, src.Codes[r], x, size); ok {
					if last < 0 || prevNull || code != v.Codes[last] {
						e.runBytes += runHeader + size
					}
					v.Codes = append(v.Codes, code)
					prevNull = false
					continue
				}
			}
			if last >= 0 && !prevNull && x.AsString() == v.Dict[v.Codes[last]].AsString() {
				v.Codes = append(v.Codes, v.Codes[last]) // a run shares its first row's code
				continue
			}
			e.runBytes += runHeader + size
			v.Codes = append(v.Codes, uint32(len(v.Dict)))
			v.Dict = append(v.Dict, *x)
			prevNull = false
		}
	}
	e.forget()
	e.dictBuf = v.Dict
	var lo, hi string
	short := true
	for i := range v.Dict {
		s := v.Dict[i].AsString()
		short = short && len(s) <= zoneMaxStr
		if i == 0 || s < lo {
			lo = s
		}
		if i == 0 || s > hi {
			hi = s
		}
	}
	if short && len(v.Dict) > 0 {
		e.zone = zone{hasBounds: true, min: expr.Str(lo), max: expr.Str(hi)}
	}
}

// dictCode returns the page code of entry c of the source dictionary
// being read, whose value is x: a remap read, or at the first meeting a
// lookup by content and, for a string the page has not met, a new
// entry. It reports false — ending the page's dictionary candidacy —
// for a string past dictMaxCard distinct ones.
func (e *chunkEncoder) dictCode(seen map[string]uint32, c uint32, x *expr.Value, size int) (uint32, bool) {
	if m := e.remap[c]; m != 0 {
		return m - 1, true
	}
	code, ok := seen[x.AsString()]
	if !ok {
		if len(e.vec.Dict) >= dictMaxCard {
			e.dictable = false
			return 0, false
		}
		code = uint32(len(e.vec.Dict))
		e.vec.Dict = append(e.vec.Dict, *x)
		seen[x.AsString()] = code
		e.ndict++
		e.dictBytes += size
	}
	e.remap[c] = code + 1
	e.touched = append(e.touched, c)
	return code, true
}

// forget clears the remap entries the last source dictionary set.
func (e *chunkEncoder) forget() {
	for _, c := range e.touched {
		e.remap[c] = 0
	}
	e.touched = e.touched[:0]
}

func (e *chunkEncoder) buildBools(page []span, ci int) {
	v := &e.vec
	var prev uint32
	var met [2]bool
	prevNull := false
	for _, s := range page {
		src := s.c.cols[ci]
		for r := s.lo; r < s.hi; r++ {
			if src.IsNull(r) {
				e.null(prevNull)
				prevNull = true
				continue
			}
			code := src.Codes[r]
			if len(v.Codes) == 0 || prevNull || code != prev {
				e.runBytes += runHeader + 1
			}
			prev, prevNull = code, false
			met[code] = true
			v.Codes = append(v.Codes, code)
		}
	}
	e.rawBytes = e.n - e.nulls
	if e.nulls < e.n {
		e.zone = zone{hasBounds: true, min: expr.Bool(!met[0]), max: expr.Bool(met[1])}
	}
}

// packedLen is the byte length of count values bit-packed at width.
func packedLen(count, width int) int {
	return (count*width + 7) / 8
}

// bitsFor is the width needed to represent codes 0..n-1.
func bitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// chooseEncoding picks the smallest candidate body for the chunk,
// preferring (on ties) the cheapest to decode: raw, then bit-pack,
// then dictionary, then run-length.
func chooseEncoding(typ string, st *chunkStats) int {
	bm := (st.n + 7) / 8
	present := st.n - st.nulls
	best, size := encRaw, bm+st.rawBytes
	if typ == "int" && present > 0 {
		width := bits.Len64(uint64(st.intMax) - uint64(st.intMin))
		if s := 8 + 1 + bm + packedLen(present, width); s < size {
			best, size = encBitPack, s
		}
	}
	if st.dictable && st.ndict > 0 {
		width := bitsFor(st.ndict)
		if s := 4 + st.dictBytes + 1 + bm + packedLen(present, width); s < size {
			best, size = encDict, s
		}
	}
	if st.runBytes < size {
		best = encRLE
	}
	return best
}

// ---- bit packing (LSB-first little-endian bit stream) ----

func lowMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << k) - 1
}

// bitWriter appends values to buf as an LSB-first little-endian bit
// stream; flush pads the last byte with zero bits.
type bitWriter struct {
	buf []byte
	acc uint64
	nb  int
}

func (w *bitWriter) put(v uint64, width int) {
	for rem := width; rem > 0; {
		take := min(rem, 64-w.nb)
		w.acc |= (v & lowMask(take)) << w.nb
		v >>= uint(take)
		w.nb += take
		rem -= take
		for w.nb >= 8 {
			w.buf = append(w.buf, byte(w.acc))
			w.acc >>= 8
			w.nb -= 8
		}
	}
}

func (w *bitWriter) flush() []byte {
	if w.nb > 0 {
		w.buf = append(w.buf, byte(w.acc))
	}
	return w.buf
}

// bitReader consumes a packed stream produced by appendPacked.
type bitReader struct {
	buf []byte
	pos int
	acc uint64 // < 8 valid bits
	nb  int
}

func (r *bitReader) read(width int) (uint64, bool) {
	var v uint64
	got := 0
	if r.nb > 0 {
		take := width
		if take > r.nb {
			take = r.nb
		}
		v = r.acc & lowMask(take)
		r.acc >>= uint(take)
		r.nb -= take
		got = take
	}
	for got < width {
		if r.pos >= len(r.buf) {
			return 0, false
		}
		b := uint64(r.buf[r.pos])
		r.pos++
		take := width - got
		if take >= 8 {
			v |= b << uint(got)
			got += 8
		} else {
			v |= (b & lowMask(take)) << uint(got)
			r.acc = b >> uint(take)
			r.nb = 8 - take
			got = width
		}
	}
	return v, true
}

// ---- shared raw-value helpers ----

// appendRaw decodes the raw value at body[pos] onto the end of v and
// returns the position after it.
func (v *Vector) appendRaw(body []byte, pos int, seen map[string]uint32) (int, error) {
	switch v.Kind {
	case expr.KindInt:
		if pos+8 > len(body) {
			return 0, fmt.Errorf("int value truncated")
		}
		v.Ints = append(v.Ints, int64(binary.LittleEndian.Uint64(body[pos:])))
		return pos + 8, nil
	case expr.KindFloat:
		if pos+8 > len(body) {
			return 0, fmt.Errorf("float value truncated")
		}
		v.Floats = append(v.Floats, math.Float64frombits(binary.LittleEndian.Uint64(body[pos:])))
		return pos + 8, nil
	case expr.KindBool:
		if pos+1 > len(body) {
			return 0, fmt.Errorf("bool value truncated")
		}
		code := uint32(0)
		if body[pos] != 0 {
			code = 1
		}
		v.Codes = append(v.Codes, code)
		return pos + 1, nil
	}
	if pos+4 > len(body) {
		return 0, fmt.Errorf("string length truncated")
	}
	sl := int(binary.LittleEndian.Uint32(body[pos:]))
	pos += 4
	if sl > len(body)-pos {
		return 0, fmt.Errorf("string value truncated")
	}
	v.appendString(body[pos:pos+sl], seen)
	return pos + sl, nil
}

// ---- chunk body encoders ----
//
// One set, writing from the chunkEncoder's vector; each is the inverse
// of the decoder of the same name below.

// appendBody writes the chunk's body in the given encoding. Callers
// pick an encoding the statistics allow: encDict needs dictable,
// encBitPack an int chunk with a present row.
func (e *chunkEncoder) appendBody(buf []byte, enc int) []byte {
	switch enc {
	case encDict:
		return e.appendDictBody(buf)
	case encRLE:
		return e.appendRLEBody(buf)
	case encBitPack:
		return e.appendBitPackBody(buf)
	}
	return e.appendRawBody(buf)
}

// appendPresence appends the presence bitmap: bit i set = row i holds a
// value (the complement of the vector's NULL bitmap).
func (v *Vector) appendPresence(buf []byte, n int) []byte {
	at := len(buf)
	buf = slices.Grow(buf, (n+7)/8)[:at+(n+7)/8]
	for b := range buf[at:] {
		nulls := byte(0)
		if v.Nulls != nil {
			nulls = byte(v.Nulls[b>>3] >> (8 * uint(b&7)))
		}
		buf[at+b] = ^nulls
	}
	if n%8 != 0 {
		buf[len(buf)-1] &= 1<<(n%8) - 1
	}
	return buf
}

// appendValue appends row i's raw encoding; the row is not NULL.
func (v *Vector) appendValue(buf []byte, i int) []byte {
	switch v.Kind {
	case expr.KindInt:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Ints[i]))
	case expr.KindFloat:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[i]))
	case expr.KindBool:
		return append(buf, byte(v.Codes[i]))
	}
	return appendStr(buf, v.Dict[v.Codes[i]].AsString())
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// identical reports whether rows i and j are both NULL or hold
// bit-identical values — the run-length equality: NaNs with equal
// payloads are one run, -0 and +0 are two.
func (v *Vector) identical(i, j int) bool {
	if ni, nj := v.IsNull(i), v.IsNull(j); ni || nj {
		return ni && nj
	}
	switch v.Kind {
	case expr.KindInt:
		return v.Ints[i] == v.Ints[j]
	case expr.KindFloat:
		return math.Float64bits(v.Floats[i]) == math.Float64bits(v.Floats[j])
	case expr.KindBool:
		return v.Codes[i] == v.Codes[j]
	}
	return v.Codes[i] == v.Codes[j] || v.Dict[v.Codes[i]].AsString() == v.Dict[v.Codes[j]].AsString()
}

// appendRawBody writes the encRaw body: bitmap + present values.
func (e *chunkEncoder) appendRawBody(buf []byte) []byte {
	v := &e.vec
	buf = slices.Grow(v.appendPresence(buf, e.n), e.rawBytes)
	for i := 0; i < e.n; i++ {
		if !v.IsNull(i) {
			buf = v.appendValue(buf, i)
		}
	}
	return buf
}

// appendDictBody writes u32 ndict, the dictionary values, u8 width,
// bitmap, and the present rows' codes bit-packed.
func (e *chunkEncoder) appendDictBody(buf []byte) []byte {
	v := &e.vec
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.ndict))
	codes := v.Codes
	if v.Kind == expr.KindInt {
		codes = e.intCodes
		for _, x := range e.intDict {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	} else {
		for _, d := range v.Dict[:e.ndict] {
			buf = appendStr(buf, d.AsString())
		}
	}
	width := bitsFor(e.ndict)
	buf = append(buf, byte(width))
	w := bitWriter{buf: v.appendPresence(buf, e.n)}
	for i, code := range codes {
		if !v.IsNull(i) {
			w.put(uint64(code), width)
		}
	}
	return w.flush()
}

// appendRLEBody writes runs of bit-identical values: u32 count,
// u8 flag (1 = value follows, 0 = NULL run), [value].
func (e *chunkEncoder) appendRLEBody(buf []byte) []byte {
	v := &e.vec
	for start := 0; start < e.n; {
		end := start + 1
		for end < e.n && v.identical(end, start) {
			end++
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(end-start))
		if v.IsNull(start) {
			buf = append(buf, 0)
		} else {
			buf = v.appendValue(append(buf, 1), start)
		}
		start = end
	}
	return buf
}

// appendBitPackBody writes i64 base (the chunk minimum), u8 width,
// bitmap, and the present rows' deltas bit-packed.
func (e *chunkEncoder) appendBitPackBody(buf []byte) []byte {
	v := &e.vec
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.intMin))
	width := bits.Len64(uint64(e.intMax) - uint64(e.intMin))
	buf = append(buf, byte(width))
	w := bitWriter{buf: v.appendPresence(buf, e.n)}
	for i, x := range v.Ints {
		if !v.IsNull(i) {
			w.put(uint64(x)-uint64(e.intMin), width)
		}
	}
	return w.flush()
}

// ---- chunk body decoders ----
//
// One set, decoding to a Vector: dictionary chunks keep their codes,
// run-length chunks expand, bit-packed chunks add their base. A page's
// rows are built from the same vectors (pageRows). n is the
// page's row count from the manifest; no decoder appends more than n
// rows or reads past its chunk, whatever the bytes say.

// decodeChunk decodes one chunk body of the given encoding into v.
func decodeChunk(enc int, body []byte, n int, typ string, v *Vector) error {
	if err := v.reset(typ, n); err != nil {
		return err
	}
	switch enc {
	case encRaw:
		return v.decodeRaw(body, n)
	case encDict:
		return v.decodeDict(body, n, typ)
	case encRLE:
		return v.decodeRLE(body, n)
	case encBitPack:
		return v.decodeBitPack(body, n)
	}
	return fmt.Errorf("unknown encoding tag %d", enc)
}

// decodeBitmap validates and returns the leading presence bitmap.
func decodeBitmap(body []byte, n int) ([]byte, []byte, error) {
	bm := (n + 7) / 8
	if len(body) < bm {
		return nil, nil, fmt.Errorf("bitmap truncated")
	}
	return body[:bm], body[bm:], nil
}

func (v *Vector) decodeRaw(body []byte, n int) error {
	bitmap, rest, err := decodeBitmap(body, n)
	if err != nil {
		return err
	}
	// A raw string chunk has no dictionary: build one, so equal values
	// share a code.
	var seen map[string]uint32
	if v.Kind == expr.KindString {
		seen = map[string]uint32{}
	}
	pos := 0
	for ri := 0; ri < n; ri++ {
		if bitmap[ri/8]&(1<<(ri%8)) == 0 {
			v.appendNull(n)
			continue
		}
		if pos, err = v.appendRaw(rest, pos, seen); err != nil {
			return err
		}
	}
	return nil
}

func (v *Vector) decodeDict(body []byte, n int, typ string) error {
	if len(body) < 4 {
		return fmt.Errorf("dictionary header truncated")
	}
	// The encoder's dictionary holds only values the page's rows carry.
	ndict := int(binary.LittleEndian.Uint32(body))
	if ndict < 0 || ndict > dictMaxCard || ndict > n {
		return fmt.Errorf("dictionary cardinality %d out of range", ndict)
	}
	pos := 4
	var dict Vector
	if err := dict.reset(typ, ndict); err != nil {
		return err
	}
	var err error
	for i := 0; i < ndict; i++ {
		if pos, err = dict.appendRaw(body, pos, nil); err != nil {
			return err
		}
	}
	v.Dict = dict.Dict
	if pos >= len(body) {
		return fmt.Errorf("dictionary width truncated")
	}
	width := int(body[pos])
	pos++
	if width > 32 {
		return fmt.Errorf("dictionary code width %d out of range", width)
	}
	bitmap, rest, err := decodeBitmap(body[pos:], n)
	if err != nil {
		return err
	}
	br := &bitReader{buf: rest}
	for ri := 0; ri < n; ri++ {
		if bitmap[ri/8]&(1<<(ri%8)) == 0 {
			v.appendNull(n)
			continue
		}
		code := uint64(0)
		if width > 0 {
			var ok bool
			code, ok = br.read(width)
			if !ok {
				return fmt.Errorf("dictionary codes truncated")
			}
		}
		if code >= uint64(ndict) {
			return fmt.Errorf("dictionary code %d out of range", code)
		}
		v.appendFrom(&dict, int(code))
	}
	return nil
}

func (v *Vector) decodeRLE(body []byte, n int) error {
	pos, ri := 0, 0
	for ri < n {
		if pos+5 > len(body) {
			return fmt.Errorf("run header truncated")
		}
		count := int(binary.LittleEndian.Uint32(body[pos:]))
		flag := body[pos+4]
		pos += 5
		if count <= 0 || count > n-ri {
			return fmt.Errorf("run of %d rows overflows page", count)
		}
		ri += count
		if flag == 0 {
			for ; count > 0; count-- {
				v.appendNull(n)
			}
			continue
		}
		var err error
		if pos, err = v.appendRaw(body, pos, nil); err != nil {
			return err
		}
		v.repeatLast(count - 1)
	}
	return nil
}

func (v *Vector) decodeBitPack(body []byte, n int) error {
	if v.Kind != expr.KindInt {
		return fmt.Errorf("bit-packed chunk on %s column", v.Kind)
	}
	if len(body) < 9 {
		return fmt.Errorf("bit-pack header truncated")
	}
	base := binary.LittleEndian.Uint64(body)
	width := int(body[8])
	if width > 64 {
		return fmt.Errorf("bit width %d out of range", width)
	}
	bitmap, rest, err := decodeBitmap(body[9:], n)
	if err != nil {
		return err
	}
	br := &bitReader{buf: rest}
	for ri := 0; ri < n; ri++ {
		if bitmap[ri/8]&(1<<(ri%8)) == 0 {
			v.appendNull(n)
			continue
		}
		delta := uint64(0)
		if width > 0 {
			var ok bool
			delta, ok = br.read(width)
			if !ok {
				return fmt.Errorf("bit-packed values truncated")
			}
		}
		v.Ints = append(v.Ints, int64(base+delta))
	}
	return nil
}
