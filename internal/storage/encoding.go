package storage

// Per-chunk compressed encodings for format-2 pages (see page.go for
// the page frame and docs/ARCHITECTURE.md for the spec). Each column
// chunk of a page is encoded independently, picked by a single stats
// pass over the chunk's values at write time:
//
//	encRaw      presence bitmap + raw values (the format-1 body)
//	encDict     dictionary: distinct values once + bit-packed codes
//	            (string and int columns)
//	encRLE      run-length: exact-equality runs of values or NULLs
//	encBitPack  frame-of-reference bit-packing (int columns): min as
//	            the base, per-value deltas at the narrowest width
//
// The pass also derives the page's zone map: per-column null count
// and min/max bounds (by expr.Value.Compare, the same ordering the
// filter evaluator uses, so pruning is conservative by construction).
// Bounds are withheld for columns whose chunk contains a non-finite
// float — Compare treats NaN as equal to everything, so no bound
// excludes it (and NaN/Inf would not survive the JSON manifest) — or
// an over-long string (manifest bloat).
//
// Every encoding round-trips values bit-exactly: floats compare and
// deduplicate by their IEEE-754 bit pattern (NaN payloads and -0
// survive), strings by content. Decoding therefore reproduces the
// stored expr.Values byte-identically, preserving the disk backend's
// byte-identity oracle against the in-memory backend.
//
// There is one set of decoders, and it decodes a chunk to a Vector
// (vector.go), the form closest to every encoding: a dictionary chunk
// keeps its codes, a run-length chunk repeats a value, a bit-packed
// chunk adds its base. A page's rows are transposed from those vectors
// (decodePage). Chunk bytes are untrusted: every decoder is handed the
// page's row count from the manifest and produces exactly that many
// rows or an error — never more, whatever counts the bytes claim.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

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
// min/max of the non-NULL values under expr.Value.Compare.
type zone struct {
	nulls     int
	hasBounds bool
	min, max  expr.Value
}

// valKey is a map key distinguishing values bit-exactly within one
// column (all non-NULL values of a column share its declared kind).
type valKey struct {
	bits uint64
	s    string
}

func keyOf(v expr.Value) valKey {
	switch v.Kind() {
	case expr.KindInt:
		return valKey{bits: uint64(v.AsInt())}
	case expr.KindFloat:
		f, _ := v.AsFloat()
		return valKey{bits: math.Float64bits(f)}
	case expr.KindBool:
		if v.AsBool() {
			return valKey{bits: 1}
		}
		return valKey{}
	case expr.KindString:
		return valKey{s: v.AsString()}
	}
	return valKey{}
}

// valIdentical reports bit-exact equality (the run-length equality:
// NaNs with equal payloads are identical, -0 differs from +0).
func valIdentical(a, b expr.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case expr.KindNull:
		return true
	case expr.KindInt:
		return a.AsInt() == b.AsInt()
	case expr.KindFloat:
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return math.Float64bits(af) == math.Float64bits(bf)
	case expr.KindBool:
		return a.AsBool() == b.AsBool()
	case expr.KindString:
		return a.AsString() == b.AsString()
	}
	return false
}

// rawValSize is the encoded size of one non-NULL value.
func rawValSize(v expr.Value) int {
	switch v.Kind() {
	case expr.KindInt, expr.KindFloat:
		return 8
	case expr.KindBool:
		return 1
	case expr.KindString:
		return 4 + len(v.AsString())
	}
	return 0
}

// chunkStats is the single-pass analysis of one column chunk: enough
// to size every candidate encoding, drive the chosen encoder, and
// fill the page's zone-map entry.
type chunkStats struct {
	n        int
	nulls    int
	rawBytes int // value bytes of the present rows
	runBytes int // exact size of the encRLE body

	dictable  bool
	dictBytes int              // value bytes of the distinct values
	codes     map[valKey]int32 // value → dictionary code
	dict      []expr.Value     // code → value, first-seen order

	intMin, intMax int64 // int columns, present rows only

	zone zone
}

// analyzeChunk scans rows[first:first+n] at column ci in one pass.
func analyzeChunk(rows []Row, ci int, typ string) *chunkStats {
	st := &chunkStats{n: len(rows)}
	st.dictable = typ == "string" || typ == "int"
	if st.dictable {
		st.codes = make(map[valKey]int32)
	}
	boundsOK := true
	var prev expr.Value
	for ri, r := range rows {
		v := r[ci]
		if ri == 0 || !valIdentical(v, prev) {
			st.runBytes += 4 + 1
			if !v.IsNull() {
				st.runBytes += rawValSize(v)
			}
		}
		prev = v
		if v.IsNull() {
			st.nulls++
			continue
		}
		vs := rawValSize(v)
		st.rawBytes += vs
		if st.dictable {
			k := keyOf(v)
			if _, ok := st.codes[k]; !ok {
				if len(st.dict) >= dictMaxCard {
					st.dictable = false
					st.codes = nil
					st.dict = nil
				} else {
					st.codes[k] = int32(len(st.dict))
					st.dict = append(st.dict, v)
					st.dictBytes += vs
				}
			}
		}
		switch v.Kind() {
		case expr.KindInt:
			i := v.AsInt()
			if st.rawBytes == vs { // first present value
				st.intMin, st.intMax = i, i
			} else {
				if i < st.intMin {
					st.intMin = i
				}
				if i > st.intMax {
					st.intMax = i
				}
			}
		case expr.KindFloat:
			f, _ := v.AsFloat()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				boundsOK = false
			}
		case expr.KindString:
			if len(v.AsString()) > zoneMaxStr {
				boundsOK = false
			}
		}
		if boundsOK {
			if st.zone.min.IsNull() && st.rawBytes == vs {
				st.zone.min, st.zone.max = v, v
			} else {
				if c, err := v.Compare(st.zone.min); err == nil && c < 0 {
					st.zone.min = v
				}
				if c, err := v.Compare(st.zone.max); err == nil && c > 0 {
					st.zone.max = v
				}
			}
		}
	}
	st.zone.nulls = st.nulls
	st.zone.hasBounds = boundsOK && st.nulls < st.n && st.n > 0
	if !st.zone.hasBounds {
		st.zone.min, st.zone.max = expr.Value{}, expr.Value{}
	}
	return st
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
	if st.dictable && len(st.dict) > 0 {
		width := bitsFor(len(st.dict))
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

// appendPacked appends vals at the given bit width.
func appendPacked(buf []byte, vals []uint64, width int) []byte {
	if width <= 0 {
		return buf
	}
	var acc uint64
	nb := 0
	for _, v := range vals {
		rem := width
		for rem > 0 {
			take := rem
			if take > 64-nb {
				take = 64 - nb
			}
			acc |= (v & lowMask(take)) << nb
			v >>= uint(take)
			nb += take
			rem -= take
			for nb >= 8 {
				buf = append(buf, byte(acc))
				acc >>= 8
				nb -= 8
			}
		}
	}
	if nb > 0 {
		buf = append(buf, byte(acc))
	}
	return buf
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

// appendVal appends one non-NULL value's raw encoding.
func appendVal(buf []byte, v expr.Value) []byte {
	var u64 [8]byte
	switch v.Kind() {
	case expr.KindInt:
		binary.LittleEndian.PutUint64(u64[:], uint64(v.AsInt()))
		buf = append(buf, u64[:]...)
	case expr.KindFloat:
		f, _ := v.AsFloat()
		binary.LittleEndian.PutUint64(u64[:], math.Float64bits(f))
		buf = append(buf, u64[:]...)
	case expr.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		buf = append(buf, b)
	case expr.KindString:
		s := v.AsString()
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(len(s)))
		buf = append(buf, u32[:]...)
		buf = append(buf, s...)
	}
	return buf
}

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

// appendBitmap appends the presence bitmap of rows at column ci.
func appendBitmap(buf []byte, rows []Row, ci int) []byte {
	at := len(buf)
	buf = append(buf, make([]byte, (len(rows)+7)/8)...)
	for ri, r := range rows {
		if !r[ci].IsNull() {
			buf[at+ri/8] |= 1 << (ri % 8)
		}
	}
	return buf
}

// ---- chunk body encoders ----

// appendRawBody writes the encRaw body: bitmap + present values (the
// format-1 chunk body, bit for bit).
func appendRawBody(buf []byte, rows []Row, ci int) []byte {
	buf = appendBitmap(buf, rows, ci)
	for _, r := range rows {
		if !r[ci].IsNull() {
			buf = appendVal(buf, r[ci])
		}
	}
	return buf
}

// appendDictBody writes u32 ndict, the dictionary values, u8 width,
// bitmap, and the present rows' codes bit-packed.
func appendDictBody(buf []byte, rows []Row, ci int, st *chunkStats) []byte {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(st.dict)))
	buf = append(buf, u32[:]...)
	for _, v := range st.dict {
		buf = appendVal(buf, v)
	}
	width := bitsFor(len(st.dict))
	buf = append(buf, byte(width))
	buf = appendBitmap(buf, rows, ci)
	codes := make([]uint64, 0, st.n-st.nulls)
	for _, r := range rows {
		if !r[ci].IsNull() {
			codes = append(codes, uint64(st.codes[keyOf(r[ci])]))
		}
	}
	return appendPacked(buf, codes, width)
}

// appendRLEBody writes runs of bit-identical values: u32 count,
// u8 flag (1 = value follows, 0 = NULL run), [value].
func appendRLEBody(buf []byte, rows []Row, ci int) []byte {
	var u32 [4]byte
	flush := func(v expr.Value, count int) {
		binary.LittleEndian.PutUint32(u32[:], uint32(count))
		buf = append(buf, u32[:]...)
		if v.IsNull() {
			buf = append(buf, 0)
			return
		}
		buf = append(buf, 1)
		buf = appendVal(buf, v)
	}
	var run expr.Value
	count := 0
	for _, r := range rows {
		v := r[ci]
		if count > 0 && valIdentical(v, run) {
			count++
			continue
		}
		if count > 0 {
			flush(run, count)
		}
		run, count = v, 1
	}
	if count > 0 {
		flush(run, count)
	}
	return buf
}

// appendBitPackBody writes i64 base (the chunk minimum), u8 width,
// bitmap, and the present rows' deltas bit-packed.
func appendBitPackBody(buf []byte, rows []Row, ci int, st *chunkStats) []byte {
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(st.intMin))
	buf = append(buf, u64[:]...)
	width := bits.Len64(uint64(st.intMax) - uint64(st.intMin))
	buf = append(buf, byte(width))
	buf = appendBitmap(buf, rows, ci)
	deltas := make([]uint64, 0, st.n-st.nulls)
	for _, r := range rows {
		if !r[ci].IsNull() {
			deltas = append(deltas, uint64(r[ci].AsInt())-uint64(st.intMin))
		}
	}
	return appendPacked(buf, deltas, width)
}

// ---- chunk body decoders ----
//
// One set, decoding to a Vector: dictionary chunks keep their codes,
// run-length chunks expand, bit-packed chunks add their base. The row
// form of a page is built from the same vectors (decodePage). n is the
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
