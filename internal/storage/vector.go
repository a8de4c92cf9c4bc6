package storage

// Vector is the typed, columnar decoded form of one column chunk: what
// the OLAP fast path and the ETL executor read instead of rows. An int
// column is a []int64, a float column a []float64; string and bool
// columns are a code per row into the chunk's own dictionary. No
// expr.Value exists per row — only per dictionary entry.
//
// Vectors handed out by a Cursor are shared and immutable.

import (
	"fmt"
	"slices"

	"quarry/internal/expr"
)

// Vector holds the values of one column over a run of rows. Exactly
// one of Ints, Floats and Codes is populated, chosen by Kind; a NULL
// row holds a zero there and has its bit set in Nulls.
//
// Kind is KindNull for a column whose values are not all of one kind:
// Codes then index a Dict whose entries keep each value's own kind.
// Storage never makes one; the ETL executor does, from expression and
// aggregate results (a Function that is Int on some rows and Float on
// others).
type Vector struct {
	Kind   expr.Kind
	Ints   []int64      // KindInt
	Floats []float64    // KindFloat
	Codes  []uint32     // KindString, KindBool, KindNull: index into Dict
	Dict   []expr.Value // entries may repeat (a run-length chunk has one per run)
	Nulls  []uint64     // bit i set = row i is NULL; nil when no row is
}

// boolDict is the dictionary every bool vector shares.
var boolDict = []expr.Value{expr.Bool(false), expr.Bool(true)}

// Coded reports whether rows are codes into Dict rather than numbers.
func (v *Vector) Coded() bool { return v.Kind != expr.KindInt && v.Kind != expr.KindFloat }

// VectorOf builds the vector of a column from its values: the typed
// form when every non-NULL value is of one kind (a string gets a
// dictionary entry per row), the mixed form (KindNull) otherwise.
func VectorOf(vals []expr.Value) *Vector {
	v := &Vector{}
	for _, x := range vals {
		if x.IsNull() {
			continue
		}
		if v.Kind == expr.KindNull {
			v.Kind = x.Kind()
		} else if x.Kind() != v.Kind {
			v.Kind = expr.KindNull
			break
		}
	}
	n := len(vals)
	switch v.Kind {
	case expr.KindInt:
		v.Ints = make([]int64, n)
	case expr.KindFloat:
		v.Floats = make([]float64, n)
	case expr.KindBool:
		v.Codes, v.Dict = make([]uint32, n), boolDict
	default:
		v.Codes, v.Dict = make([]uint32, n), make([]expr.Value, 0, n)
	}
	for i, x := range vals {
		switch {
		case x.IsNull():
			if v.Nulls == nil {
				v.Nulls = make([]uint64, (n+63)/64)
			}
			v.Nulls[i>>6] |= 1 << (uint(i) & 63)
		case v.Kind == expr.KindInt:
			v.Ints[i] = x.AsInt()
		case v.Kind == expr.KindFloat:
			v.Floats[i], _ = x.AsFloat()
		case v.Kind == expr.KindBool:
			if x.AsBool() {
				v.Codes[i] = 1
			}
		default:
			v.Codes[i] = uint32(len(v.Dict))
			v.Dict = append(v.Dict, x)
		}
	}
	return v
}

// AppendVector appends v as a page chunk — the tag byte of the encoding
// the statistics pick, then the body — so that bytes outside a page (the
// shard wire) share the pages' layout and decoders. v must be typed:
// int, float, string or bool, not the mixed form.
func AppendVector(buf []byte, v *Vector) []byte {
	n, typ := v.Len(), v.Kind.String()
	var e chunkEncoder
	e.build([]span{{c: &chunk{n: n, cols: []*Vector{v}}, hi: n}}, 0, typ)
	enc := chooseEncoding(typ, &e.chunkStats)
	return e.appendBody(append(buf, byte(enc)), enc)
}

// DecodeVector decodes a chunk AppendVector wrote: a vector of the given
// kind holding n rows. Like a page's chunks, the bytes are untrusted and
// n bounds every allocation, so the caller must have bounded n by what
// it was handed.
func DecodeVector(b []byte, kind expr.Kind, n int) (*Vector, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("chunk missing encoding tag")
	}
	v := &Vector{}
	if err := decodeChunk(int(b[0]), b[1:], n, kind.String(), v); err != nil {
		return nil, err
	}
	return v, nil
}

// Slice returns rows [lo, hi) of v as a vector sharing its buffers (the
// NULL bitmap, which must start at row lo, excepted).
func (v *Vector) Slice(lo, hi int) *Vector {
	s := &Vector{Kind: v.Kind, Dict: v.Dict}
	switch v.Kind {
	case expr.KindInt:
		s.Ints = v.Ints[lo:hi:hi]
	case expr.KindFloat:
		s.Floats = v.Floats[lo:hi:hi]
	default:
		s.Codes = v.Codes[lo:hi:hi]
	}
	for i := lo; v.Nulls != nil && i < hi; i++ {
		if v.IsNull(i) {
			if s.Nulls == nil {
				s.Nulls = make([]uint64, (hi-lo+63)/64)
			}
			s.Nulls[(i-lo)>>6] |= 1 << (uint(i-lo) & 63)
		}
	}
	return s
}

// Len is the number of rows.
func (v *Vector) Len() int {
	switch v.Kind {
	case expr.KindInt:
		return len(v.Ints)
	case expr.KindFloat:
		return len(v.Floats)
	}
	return len(v.Codes)
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool {
	return v.Nulls != nil && v.Nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// Value builds row i's value.
func (v *Vector) Value(i int) expr.Value {
	if v.IsNull(i) {
		return expr.Value{}
	}
	switch v.Kind {
	case expr.KindInt:
		return expr.Int(v.Ints[i])
	case expr.KindFloat:
		return expr.Float(v.Floats[i])
	}
	return v.Dict[v.Codes[i]]
}

// Gather overwrites dst with the rows sel picks from v, in sel's
// order, reusing dst's buffers. dst shares v's dictionary.
func (v *Vector) Gather(dst *Vector, sel []int32) {
	dst.Kind, dst.Dict, dst.Nulls = v.Kind, v.Dict, dst.Nulls[:0]
	switch v.Kind {
	case expr.KindInt:
		dst.Ints = slices.Grow(dst.Ints[:0], len(sel))
		for _, s := range sel {
			dst.Ints = append(dst.Ints, v.Ints[s])
		}
	case expr.KindFloat:
		dst.Floats = slices.Grow(dst.Floats[:0], len(sel))
		for _, s := range sel {
			dst.Floats = append(dst.Floats, v.Floats[s])
		}
	default:
		dst.Codes = slices.Grow(dst.Codes[:0], len(sel))
		for _, s := range sel {
			dst.Codes = append(dst.Codes, v.Codes[s])
		}
	}
	if v.Nulls == nil {
		dst.Nulls = nil
		return
	}
	if words := (len(sel) + 63) / 64; cap(dst.Nulls) < words {
		dst.Nulls = make([]uint64, words)
	} else {
		dst.Nulls = dst.Nulls[:words]
		clear(dst.Nulls)
	}
	for i, s := range sel {
		if v.IsNull(int(s)) {
			dst.Nulls[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// memSize is the vector's buffer-pool charge: its slices plus the
// dictionary's strings.
func (v *Vector) memSize() int {
	n := 8*(len(v.Ints)+len(v.Floats)+len(v.Nulls)) + 4*len(v.Codes)
	if v.Kind == expr.KindString {
		for i := range v.Dict {
			n += 48 + len(v.Dict[i].AsString())
		}
	}
	return n
}

// reset empties the vector for a column of the given type, keeping
// its buffers, with room for n rows.
func (v *Vector) reset(typ string, n int) error {
	v.Ints, v.Floats, v.Codes, v.Dict, v.Nulls = v.Ints[:0], v.Floats[:0], v.Codes[:0], nil, nil
	switch typ {
	case "int":
		v.Kind = expr.KindInt
		if cap(v.Ints) < n {
			v.Ints = make([]int64, 0, n)
		}
	case "float":
		v.Kind = expr.KindFloat
		if cap(v.Floats) < n {
			v.Floats = make([]float64, 0, n)
		}
	case "string", "bool":
		v.Kind = expr.KindString
		if typ == "bool" {
			v.Kind, v.Dict = expr.KindBool, boolDict
		}
		if cap(v.Codes) < n {
			v.Codes = make([]uint32, 0, n)
		}
	default:
		return fmt.Errorf("unknown column type %q", typ)
	}
	return nil
}

// appendNull appends a NULL row; n is the row count the vector is
// being filled to (it sizes the bitmap once).
func (v *Vector) appendNull(n int) {
	i := v.Len()
	if v.Nulls == nil {
		v.Nulls = make([]uint64, (n+63)/64)
	}
	v.Nulls[i>>6] |= 1 << (uint(i) & 63)
	switch v.Kind {
	case expr.KindInt:
		v.Ints = append(v.Ints, 0)
	case expr.KindFloat:
		v.Floats = append(v.Floats, 0)
	default:
		v.Codes = append(v.Codes, 0)
	}
}

// repeatLast appends count more copies of the last row.
func (v *Vector) repeatLast(count int) {
	switch v.Kind {
	case expr.KindInt:
		x := v.Ints[len(v.Ints)-1]
		for ; count > 0; count-- {
			v.Ints = append(v.Ints, x)
		}
	case expr.KindFloat:
		x := v.Floats[len(v.Floats)-1]
		for ; count > 0; count-- {
			v.Floats = append(v.Floats, x)
		}
	default:
		x := v.Codes[len(v.Codes)-1]
		for ; count > 0; count-- {
			v.Codes = append(v.Codes, x)
		}
	}
}

// appendFrom appends row e of d, a vector of the same kind whose
// dictionary v shares.
func (v *Vector) appendFrom(d *Vector, e int) {
	switch v.Kind {
	case expr.KindInt:
		v.Ints = append(v.Ints, d.Ints[e])
	case expr.KindFloat:
		v.Floats = append(v.Floats, d.Floats[e])
	default:
		v.Codes = append(v.Codes, d.Codes[e])
	}
}

// appendString appends a string row, coding it through seen when the
// caller deduplicates (a raw chunk, a row tail) and as a fresh
// dictionary entry otherwise.
func (v *Vector) appendString(s []byte, seen map[string]uint32) {
	if code, ok := seen[string(s)]; ok {
		v.Codes = append(v.Codes, code)
		return
	}
	code := uint32(len(v.Dict))
	val := expr.Str(string(s))
	v.Dict = append(v.Dict, val)
	if seen != nil {
		seen[val.AsString()] = code
	}
	v.Codes = append(v.Codes, code)
}

// fillRows writes the vector into column ci of rows, one value per
// row.
func (v *Vector) fillRows(rows []Row, ci int) {
	switch {
	case v.Nulls != nil:
		for ri := range rows {
			rows[ri][ci] = v.Value(ri)
		}
	case v.Kind == expr.KindInt:
		for ri, x := range v.Ints {
			rows[ri][ci] = expr.Int(x)
		}
	case v.Kind == expr.KindFloat:
		for ri, x := range v.Floats {
			rows[ri][ci] = expr.Float(x)
		}
	default:
		for ri, c := range v.Codes {
			rows[ri][ci] = v.Dict[c]
		}
	}
}
