package storage

// The row-walking page encoder this package shipped before the encoder
// was rebuilt on Vectors, kept verbatim as the oracle: encodePage must
// emit the bytes, zones and raw size encodePageReference does, the way
// diceReference backs diceFast in internal/olap. Only the names that
// still exist in production are prefixed (refChunkStats,
// refChooseEncoding, refAppendPacked); nothing here is shared with the
// encoder under test beyond the format constants.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"quarry/internal/expr"
)

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

// refChunkStats is the single-pass analysis of one column chunk: enough
// to size every candidate encoding, drive the chosen encoder, and
// fill the page's zone-map entry.
type refChunkStats struct {
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
func analyzeChunk(rows []Row, ci int, typ string) *refChunkStats {
	st := &refChunkStats{n: len(rows)}
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

// refChooseEncoding picks the smallest candidate body for the chunk,
// preferring (on ties) the cheapest to decode: raw, then bit-pack,
// then dictionary, then run-length.
func refChooseEncoding(typ string, st *refChunkStats) int {
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

// refAppendPacked appends vals at the given bit width.
func refAppendPacked(buf []byte, vals []uint64, width int) []byte {
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
func appendDictBody(buf []byte, rows []Row, ci int, st *refChunkStats) []byte {
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
	return refAppendPacked(buf, codes, width)
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
func appendBitPackBody(buf []byte, rows []Row, ci int, st *refChunkStats) []byte {
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
	return refAppendPacked(buf, deltas, width)
}

// encodePageReference renders one page in format 2, choosing each column
// chunk's encoding by a stats pass and deriving the page's zone map
// from the same pass.
func encodePageReference(cols []Column, rows []Row) encodedPage {
	ep := encodedPage{
		buf:   make([]byte, 0, pageBlock),
		zones: make([]zone, len(cols)),
		raw:   pageOverhead(len(cols), len(rows)),
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(rows)))
	ep.buf = append(ep.buf, u32[:]...)
	for ci, c := range cols {
		st := analyzeChunk(rows, ci, c.Type)
		ep.zones[ci] = st.zone
		ep.raw += st.rawBytes
		enc := encRaw
		if !TestingForceRaw {
			enc = refChooseEncoding(c.Type, st)
		}
		chunkAt := len(ep.buf)
		ep.buf = append(ep.buf, 0, 0, 0, 0) // chunk length, patched below
		ep.buf = append(ep.buf, byte(enc))
		switch enc {
		case encRaw:
			ep.buf = appendRawBody(ep.buf, rows, ci)
		case encDict:
			ep.buf = appendDictBody(ep.buf, rows, ci, st)
		case encRLE:
			ep.buf = appendRLEBody(ep.buf, rows, ci)
		case encBitPack:
			ep.buf = appendBitPackBody(ep.buf, rows, ci, st)
		}
		binary.LittleEndian.PutUint32(ep.buf[chunkAt:], uint32(len(ep.buf)-chunkAt-4))
	}
	if pad := len(ep.buf) % pageBlock; pad != 0 {
		ep.buf = append(ep.buf, make([]byte, pageBlock-pad)...)
	}
	return ep
}

// samePage reports how two renderings of one page differ: bytes, raw
// size, or a zone entry (bounds compared bit-exactly).
func samePage(got, want encodedPage) error {
	if !bytes.Equal(got.buf, want.buf) {
		at := 0
		for at < len(got.buf) && at < len(want.buf) && got.buf[at] == want.buf[at] {
			at++
		}
		return fmt.Errorf("page bytes differ at offset %d (%d vs %d bytes)", at, len(got.buf), len(want.buf))
	}
	if got.raw != want.raw {
		return fmt.Errorf("raw size %d, reference %d", got.raw, want.raw)
	}
	if len(got.zones) != len(want.zones) {
		return fmt.Errorf("%d zone entries, reference %d", len(got.zones), len(want.zones))
	}
	for ci, g := range got.zones {
		w := want.zones[ci]
		if g.nulls != w.nulls || g.hasBounds != w.hasBounds || !valIdentical(g.min, w.min) || !valIdentical(g.max, w.max) {
			return fmt.Errorf("column %d zone {nulls %d bounds %v %s..%s}, reference {nulls %d bounds %v %s..%s}",
				ci, g.nulls, g.hasBounds, g.min, g.max, w.nulls, w.hasBounds, w.min, w.max)
		}
	}
	return nil
}

// pageMatchesReference demands that the page encodePage renders — with
// a fresh encoder and with one reused across pages, as a commit worker
// does — is the reference's, under both settings of TestingForceRaw.
func pageMatchesReference(cols []Column, page []Row, reused *chunkEncoder) error {
	defer func(prev bool) { TestingForceRaw = prev }(TestingForceRaw)
	for _, raw := range []bool{false, true} {
		TestingForceRaw = raw
		want := encodePageReference(cols, page)
		if err := samePage(encodePage(cols, page), want); err != nil {
			return fmt.Errorf("forceRaw %v: %w", raw, err)
		}
		if err := samePage(reused.encodePage(cols, page), want); err != nil {
			return fmt.Errorf("forceRaw %v, reused encoder: %w", raw, err)
		}
	}
	return nil
}

// matchesReference cuts rows into pages as a commit does and checks
// each against the reference.
func matchesReference(cols []Column, rows []Row) error {
	var reused chunkEncoder
	first := 0
	for pi, n := range splitPages(len(cols), rows) {
		if err := pageMatchesReference(cols, rows[first:first+n], &reused); err != nil {
			return fmt.Errorf("page %d: %w", pi, err)
		}
		first += n
	}
	return nil
}
