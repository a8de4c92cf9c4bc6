package engine

import (
	"slices"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// The vector helpers the executor, the join index and the aggregation
// kernel share with the OLAP fast path: how a batch's column is read
// (Column), how one column's values are numbered by identity across
// batches whose dictionaries differ (dictCoder), and how a build side
// accumulates the vectors of many batches into one (accumulator).

// Column is one column of a vector batch as a kernel reads it: row r of
// the batch is row Sel[r] of Vec, or row r when Sel is nil. The ETL
// executor's batches and the fast path's joined chunks alike select
// the rows of a join's build columns and of what a filter kept, rather
// than copying them.
type Column struct {
	Vec *storage.Vector
	Sel []int32
	// Group, when set, numbers Vec's rows for grouping
	// (JoinIndex.GroupCodes): AddVectors reads a group column's codes
	// from it instead of coding the column's values, and reads Vec only
	// for a group's first row.
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
	return c.Vec == d.Vec && sameSel(c.Sel, d.Sel)
}

// sameSel reports whether two selections are the same slice.
func sameSel(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameDict reports whether two dictionaries are the same slice — not
// merely equal. Dictionaries are immutable, so what was computed from
// one holds for as long as it is presented again: a dimension column,
// or every batch cut from one page, presents the same one each time.
func sameDict(a, b []expr.Value) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Sized returns s with length n, reallocated only when it is too small
// (its contents are about to be overwritten).
func Sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dictCoder numbers one column's values by identity
// (expr.Value.Key), in first-seen order: ints by value, a float that is
// an int64 exactly as that int, any other float by its canonical bits
// (one NaN, +0), strings by content, bools and NULL each once. Code c
// stands for dict[c], the first value met of its identity, canonical
// (expr.Value.Canonical) — Int 3 or Float 3.0, whichever came first.
//
// While a column's ints span a small multiple of their count (denseSpan,
// the join index's rule too) they are numbered through a window, int k's
// code + 1 at win[k − lo], which widens like a slice grows, downward or
// upward; once they span too wide the window's entries move to a map.
//
// A coded vector arrives against a dictionary of its own (a page's, a
// dimension column's, a Function result's): the coder translates that
// dictionary's entries onto its codes one entry at a time, the first
// time a row refers to the entry — so translating costs a lookup per
// entry *referred to*, not per row and not per entry of a large
// dictionary few rows touch. A numbering made by a dictCoder
// (JoinIndex.GroupCodes) is translated alike, unless it is the first
// thing the coder meets: then it is adopted (adopt), its codes read as
// they are.
//
// The coder keeps the kinds of its non-NULL entries (kinds): where they
// are all the kind of a typed vector's rows, no row of it holds another
// representation of its entry than the entry's own.
type dictCoder struct {
	dict  []expr.Value
	known int   // dict[:known] are registered in the lookups below (catchUp)
	kinds uint8 // a bit per expr.Kind of a non-NULL entry of dict

	lo     int64
	win    []uint32            // int k's code + 1 at win[k−lo], while the ints are dense
	nints  int                 // ints registered
	sparse bool                // the ints are not dense: they are in keys
	keys   map[expr.Key]uint32 // every identity but NULL and the window's ints
	null   uint32              // NULL's code + 1; 0 until coded

	adopted *GroupCodes

	src   []expr.Value // the source dictionary being translated
	remap []uint32     // per entry of src: the coder's code + 1, 0 until translated
}

// denseSpan reports whether n ints spanning span (their largest minus
// their smallest) are numbered by arithmetic: the window, or an index
// array, costs a few slots per int.
func denseSpan(span uint64, n int) bool { return span < 8*uint64(n)+1024 }

// assign gives v's identity, not coded yet, the next code.
func (c *dictCoder) assign(v expr.Value) uint32 {
	c.dict = extend(c.dict, len(c.dict)+1)
	c.dict[len(c.dict)-1] = v.Canonical()
	c.kinds |= kindBit(v)
	c.catchUp()
	return uint32(len(c.dict) - 1)
}

// catchUp enters the identities of the entries not registered yet in
// the lookups: an adopted numbering's wait until a lookup needs them.
func (c *dictCoder) catchUp() {
	for ; c.known < len(c.dict); c.known++ {
		v, code := c.dict[c.known], uint32(c.known)
		k := v.Key()
		switch i, isInt := k.Int(); {
		case isInt && c.widen(i):
			c.win[i-c.lo] = code + 1
		case v.IsNull():
			c.null = code + 1
		default:
			c.register(k, code)
		}
	}
}

func (c *dictCoder) register(k expr.Key, code uint32) {
	if c.keys == nil {
		c.keys = map[expr.Key]uint32{}
	}
	c.keys[k] = code
}

// widen makes the window cover the int k, at least doubling it toward
// k. It reports false, and the window's ints move to keys, once the
// ints are no longer dense or the window would pass an end of int64.
func (c *dictCoder) widen(k int64) bool {
	if c.sparse {
		return false
	}
	c.nints++
	lo, hi := k, k
	if len(c.win) > 0 {
		lo, hi = min(c.lo, k), max(c.lo+int64(len(c.win)-1), k)
	}
	if uint64(k-c.lo) < uint64(len(c.win)) {
		return true
	}
	size := int64(min(max(2*uint64(len(c.win)), uint64(hi-lo)+1, 64), 8*uint64(c.nints)+1024))
	at := lo // the slack goes where k went
	if k < c.lo {
		at = hi - (size - 1)
	}
	if !denseSpan(uint64(hi-lo), c.nints) || at > lo || at+(size-1) < hi {
		c.sparse = true
		for i, e := range c.win {
			if e != 0 {
				c.register(expr.Int(c.lo+int64(i)).Key(), e-1)
			}
		}
		c.win = nil
		return false
	}
	win := make([]uint32, size)
	if len(c.win) > 0 {
		copy(win[c.lo-at:], c.win)
	}
	c.lo, c.win = at, win
	return true
}

// find returns the code of v's identity, if it has one.
func (c *dictCoder) find(v expr.Value) (uint32, bool) {
	k := v.Key()
	switch i, isInt := k.Int(); {
	case isInt && uint64(i-c.lo) < uint64(len(c.win)):
		code := c.win[i-c.lo]
		return code - 1, code != 0
	case v.IsNull():
		return c.null - 1, c.null != 0
	}
	code, ok := c.keys[k]
	return code, ok
}

// value codes one value of any kind.
func (c *dictCoder) value(v expr.Value) uint32 {
	if code, ok := c.find(v); ok {
		return code
	}
	return c.assign(v)
}

// from readies the translation of a source dictionary's codes, keeping
// what is already translated when dict is the dictionary in hand.
func (c *dictCoder) from(dict []expr.Value) {
	if sameDict(dict, c.src) {
		return
	}
	c.src, c.remap = dict, extend(c.remap[:0], len(dict))
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

// adopt reports whether g's codes are this coder's own: g is the
// numbering the coder adopted, or the coder has coded nothing yet and
// adopts it now.
func (c *dictCoder) adopt(g *GroupCodes) bool {
	if c.adopted != g && len(c.dict) == 0 {
		c.dict, c.adopted = slices.Clip(g.Dict), g
		for _, v := range g.Dict {
			c.kinds |= kindBit(v)
		}
	}
	return c.adopted == g
}

// kindBit is v's bit in dictCoder.kinds: none for NULL.
func kindBit(v expr.Value) uint8 {
	if v.IsNull() {
		return 0
	}
	return 1 << v.Kind()
}

// holdsOnly reports whether the rows of vec, a group column's vector,
// are all of the kind of their entries: vec is typed, and every
// non-NULL entry is of its kind.
func (c *dictCoder) holdsOnly(vec *storage.Vector) bool {
	return !vec.Coded() && c.kinds&^(1<<vec.Kind) == 0
}

// code appends to out the code of each of the n rows of col.
func (c *dictCoder) code(col Column, n int, out []uint32) []uint32 {
	c.catchUp()
	vec, codes := col.Vec, col.Vec.Codes
	if col.Group != nil {
		codes = col.Group.Codes
		c.from(col.Group.Dict)
	} else if vec.Coded() {
		c.from(vec.Dict)
	}
	out = slices.Grow(out, n)
	var last uint32 // runs of one int cost one lookup
	for r := 0; r < n; r++ {
		switch s := col.row(r); {
		case vec.IsNull(s):
			out = append(out, c.value(expr.Value{}))
		case col.Group != nil || vec.Coded():
			out = append(out, c.of(codes[s]))
		case vec.Kind == expr.KindFloat:
			out = append(out, c.value(expr.Float(vec.Floats[s])))
		default:
			if r == 0 || vec.Ints[s] != vec.Ints[col.row(r-1)] || vec.IsNull(col.row(r-1)) {
				last = c.value(expr.Int(vec.Ints[s]))
			}
			out = append(out, last)
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
