package engine

import (
	"math"
	"slices"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// The vector helpers the executor, the join index and the aggregation
// kernel share with the OLAP fast path: how a batch's column is read
// (Column), how one column's values are numbered across batches whose
// dictionaries differ (dictCoder), and how a build side accumulates the
// vectors of many batches into one (accumulator).

// Column is one column of a vector batch as a kernel reads it: row r of
// the batch is row Sel[r] of Vec, or row r when Sel is nil. The ETL
// executor's batches hold their vectors whole; the fast path's joined
// chunks select fact and dimension rows.
type Column struct {
	Vec *storage.Vector
	Sel []int32
	// Group, when set, numbers Vec's rows for grouping
	// (JoinIndex.GroupCodes): AddVectors reads a group column's codes
	// from it instead of coding the column's values.
	Group *GroupCodes
}

func (c *Column) row(r int) int {
	if c.Sel == nil {
		return r
	}
	return int(c.Sel[r])
}

// same reports whether d is c — the same vector through the same
// selection slice — so that what was read from one holds for the other.
func (c *Column) same(d Column) bool {
	return c.Vec == d.Vec && len(c.Sel) == len(d.Sel) && (len(c.Sel) == 0 || &c.Sel[0] == &d.Sel[0])
}

// sameDict reports whether two dictionaries are the same slice — not
// merely equal. Dictionaries are immutable, so what was computed from
// one holds for as long as it is presented again: a dimension column,
// or every batch cut from one page, presents the same one each time.
func sameDict(a, b []expr.Value) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// zeroed returns s with length n and every element zero, reallocated
// only when it is too small.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Sized returns s with length n, reallocated only when it is too small
// (its contents are about to be overwritten).
func Sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dictCoder assigns dense codes to one column's distinct values in
// first-seen order, bit-exactly: ints by value, floats by bit pattern,
// strings by content, each kind apart from the others. Code c stands for
// dict[c].
//
// A coded vector arrives against a dictionary of its own (a page's, a
// dimension column's, a Function result's): the coder translates that
// dictionary's entries onto its codes one entry at a time, the first
// time a row refers to the entry — so translating costs a hash per
// entry *referred to*, not per row and not per entry of a large
// dictionary few rows touch.
type dictCoder struct {
	dict   []expr.Value
	strs   map[string]uint32
	ints   map[int64]uint32
	floats map[uint64]uint32 // by bit pattern
	bools  [2]uint32         // code + 1; 0 until coded
	null   uint32            // NULL's code + 1; 0 until coded

	src   []expr.Value // the source dictionary being translated
	remap []uint32     // per entry of src: the coder's code + 1, 0 until translated
}

func (c *dictCoder) assign(v expr.Value) uint32 {
	c.dict = append(c.dict, v)
	return uint32(len(c.dict) - 1)
}

func (c *dictCoder) int(i int64) uint32 {
	code, ok := c.ints[i]
	if !ok {
		if c.ints == nil {
			c.ints = map[int64]uint32{}
		}
		code = c.assign(expr.Int(i))
		c.ints[i] = code
	}
	return code
}

func (c *dictCoder) float(f float64) uint32 {
	bits := math.Float64bits(f)
	code, ok := c.floats[bits]
	if !ok {
		if c.floats == nil {
			c.floats = map[uint64]uint32{}
		}
		code = c.assign(expr.Float(f))
		c.floats[bits] = code
	}
	return code
}

// value codes one value of any kind.
func (c *dictCoder) value(v expr.Value) uint32 {
	switch v.Kind() {
	case expr.KindNull:
		return c.nullCode()
	case expr.KindInt:
		return c.int(v.AsInt())
	case expr.KindFloat:
		f, _ := v.AsFloat()
		return c.float(f)
	case expr.KindBool:
		b := 0
		if v.AsBool() {
			b = 1
		}
		if c.bools[b] == 0 {
			c.bools[b] = c.assign(v) + 1
		}
		return c.bools[b] - 1
	}
	code, ok := c.strs[v.AsString()]
	if !ok {
		if c.strs == nil {
			c.strs = map[string]uint32{}
		}
		code = c.assign(v)
		c.strs[v.AsString()] = code
	}
	return code
}

func (c *dictCoder) nullCode() uint32 {
	if c.null == 0 {
		c.null = c.assign(expr.Value{}) + 1
	}
	return c.null - 1
}

// from readies the translation of a source dictionary's codes, keeping
// what is already translated when dict is the dictionary in hand.
func (c *dictCoder) from(dict []expr.Value) {
	if sameDict(dict, c.src) {
		return
	}
	c.src, c.remap = dict, zeroed(c.remap, len(dict))
}

// of returns the coder's code of entry e of the source dictionary.
func (c *dictCoder) of(e uint32) uint32 {
	if code := c.remap[e]; code != 0 {
		return code - 1
	}
	code := c.value(c.src[e])
	c.remap[e] = code + 1
	return code
}

// code appends to out the code of each of the n rows of col.
func (c *dictCoder) code(col Column, n int, out []uint32) []uint32 {
	vec := col.Vec
	out = slices.Grow(out, n)
	switch {
	case vec.Coded():
		c.from(vec.Dict)
		for r := 0; r < n; r++ {
			if s := col.row(r); vec.IsNull(s) {
				out = append(out, c.nullCode())
			} else {
				out = append(out, c.of(vec.Codes[s]))
			}
		}
	case vec.Kind == expr.KindInt:
		var last uint32 // runs of one key cost one lookup
		for r := 0; r < n; r++ {
			s := col.row(r)
			switch k := vec.Ints[s]; {
			case vec.IsNull(s):
				out = append(out, c.nullCode())
			case r == 0 || k != vec.Ints[col.row(r-1)] || vec.IsNull(col.row(r-1)):
				last = c.int(k)
				fallthrough
			default:
				out = append(out, last)
			}
		}
	default:
		for r := 0; r < n; r++ {
			if s := col.row(r); vec.IsNull(s) {
				out = append(out, c.nullCode())
			} else {
				out = append(out, c.float(vec.Floats[s]))
			}
		}
	}
	return out
}

// accumulator appends the vectors of one column, batch after batch, to
// one vector of its own: a build side's column. Coded vectors keep
// their codes, offset into the concatenation of their dictionaries (a
// dictionary presented again, as every batch cut from one page presents
// it, is appended once); nothing is hashed, so entries repeat where
// batches share values — consumers that need equal codes for equal
// values translate the entries they meet. Batches of different kinds
// turn the column into the mixed form (storage.Vector, KindNull), which
// keeps every value's own kind.
type accumulator struct {
	vec     *storage.Vector
	rows    int  // rows expected in all: the first append's capacity
	started bool // vec has taken the kind of the first vector appended
	from    []expr.Value
	base    uint32 // where from's entries start in vec.Dict
}

func (a *accumulator) add(src *storage.Vector) {
	dst := a.vec
	at := dst.Len()
	if !a.started {
		dst.Kind, a.started = src.Kind, true
	}
	if src.Kind != dst.Kind && dst.Kind != expr.KindNull {
		a.mix()
	}
	switch {
	case dst.Kind == expr.KindInt:
		if dst.Ints == nil {
			dst.Ints = make([]int64, 0, a.rows)
		}
		dst.Ints = append(dst.Ints, src.Ints...)
	case dst.Kind == expr.KindFloat:
		if dst.Floats == nil {
			dst.Floats = make([]float64, 0, a.rows)
		}
		dst.Floats = append(dst.Floats, src.Floats...)
	case src.Coded():
		if dst.Codes == nil {
			dst.Codes = make([]uint32, 0, a.rows)
		}
		if !sameDict(src.Dict, a.from) {
			a.from, a.base = src.Dict, uint32(len(dst.Dict))
			dst.Dict = append(dst.Dict, src.Dict...)
		}
		for _, code := range src.Codes {
			dst.Codes = append(dst.Codes, a.base+code)
		}
	default: // numbers into a mixed column: an entry per row
		for r, n := 0, src.Len(); r < n; r++ {
			dst.Codes = append(dst.Codes, uint32(len(dst.Dict)))
			dst.Dict = append(dst.Dict, src.Value(r))
		}
	}
	n := dst.Len()
	if src.Nulls == nil && dst.Nulls == nil {
		return
	}
	for len(dst.Nulls) < (n+63)/64 {
		dst.Nulls = append(dst.Nulls, 0)
	}
	for i := at; src.Nulls != nil && i < n; i++ {
		if src.IsNull(i - at) {
			dst.Nulls[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// mix turns the accumulated column into the mixed form: numbers become
// an entry each, a coded column keeps its codes.
func (a *accumulator) mix() {
	dst := a.vec
	if !dst.Coded() {
		n := dst.Len()
		dst.Codes, dst.Dict = make([]uint32, n, max(n, a.rows)), make([]expr.Value, n)
		for r := range dst.Codes {
			dst.Codes[r], dst.Dict[r] = uint32(r), dst.Value(r)
		}
		dst.Ints, dst.Floats = nil, nil
	}
	dst.Kind, a.from = expr.KindNull, nil
}
