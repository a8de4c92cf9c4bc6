package storage

// The uncommitted tail: the rows a table holds past its committed
// pages, as a list of immutable column-vector chunks. Rows and vectors
// reach it through one write path each, into one form:
//
//   - AppendVectors takes a chunk's vectors as they are, or a typed copy
//     of a column not already in its stored form (ints into a float
//     column, a mixed-kind vector). The ETL executor's Loader appends
//     its batches this way: no row is built.
//   - Insert and InsertAll append rows to the open chunk, whose vectors
//     grow in place until it holds chunkRows rows or a reader captures
//     the tail; either seals it.
//
// A sealed chunk never changes, so a reader captures the chunk list —
// the way it captures the pager — and reads it without a lock: the
// cursor serves a chunk's vectors directly, and a commit cuts and
// encodes pages from them (cutPages, chunkEncoder.encode).

import (
	"fmt"

	"quarry/internal/expr"
)

// chunk is an immutable run of tail rows: one vector per column, each n
// rows long and in its column's stored form — an int column's []int64,
// a float column's []float64, a string column's codes into a dictionary
// of strings (which may repeat entries or hold some no row refers to),
// a bool column's codes into boolDict.
type chunk struct {
	n    int
	cols []*Vector
}

// chunkRows is how many rows the open chunk takes before it is sealed.
const chunkRows = 1024

// openChunk is the chunk Insert and InsertAll fill: the table's writers
// own it under the table lock until it is sealed. Strings are coded
// through seen, one dictionary entry per distinct value.
type openChunk struct {
	chunk
	room int                 // the rows it is sized for
	seen []map[string]uint32 // per column; nil but for string columns
}

// newOpenChunk starts an open chunk of the given columns with room for
// rows rows.
func newOpenChunk(cols []Column, rows int) *openChunk {
	o := &openChunk{chunk: chunk{cols: make([]*Vector, len(cols))}, room: rows, seen: make([]map[string]uint32, len(cols))}
	for ci, c := range cols {
		o.cols[ci] = &Vector{}
		if err := o.cols[ci].reset(c.Type, rows); err != nil {
			panic("storage: " + err.Error()) // column types are validated at table creation
		}
		if c.Type == "string" {
			o.seen[ci] = map[string]uint32{}
		}
	}
	return o
}

// add appends a row checkRow accepted.
func (o *openChunk) add(r Row) {
	for ci, x := range r {
		v := o.cols[ci]
		switch {
		case x.IsNull():
			v.appendNull(o.room)
		case v.Kind == expr.KindInt:
			v.Ints = append(v.Ints, x.AsInt())
		case v.Kind == expr.KindFloat:
			f, _ := x.AsFloat() // an int widens
			v.Floats = append(v.Floats, f)
		case v.Kind == expr.KindBool:
			v.Codes = append(v.Codes, boolCode(x.AsBool()))
		default:
			s := x.AsString()
			code, ok := o.seen[ci][s]
			if !ok {
				code = uint32(len(v.Dict))
				v.Dict = append(v.Dict, x)
				o.seen[ci][s] = code
			}
			v.Codes = append(v.Codes, code)
		}
	}
	o.n++
}

func boolCode(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// checkRow verifies a row's arity and value kinds against the column
// types; ints are accepted into float columns (widened when stored).
func (t *Table) checkRow(r Row) error {
	if len(r) != len(t.Columns) {
		return t.arityErr(len(r))
	}
	for ci, x := range r {
		if !fits(t.Columns[ci].Type, x) {
			return typeErr(t.Name, t.Columns[ci], x)
		}
	}
	return nil
}

// fits reports whether a column of type typ stores x.
func fits(typ string, x expr.Value) bool {
	switch x.Kind() {
	case expr.KindNull:
		return true
	case expr.KindInt:
		return typ == "int" || typ == "float"
	case expr.KindFloat:
		return typ == "float"
	case expr.KindString:
		return typ == "string"
	}
	return typ == "bool"
}

func (t *Table) arityErr(got int) error {
	return fmt.Errorf("storage: table %q expects %d values, got %d", t.Name, len(t.Columns), got)
}

func typeErr(table string, c Column, v expr.Value) error {
	return fmt.Errorf("storage: table %q column %q (%s) rejects %s value %s", table, c.Name, c.Type, v.Kind(), v)
}

// Insert appends one row.
func (t *Table) Insert(r Row) error { return t.InsertAll([]Row{r}) }

// InsertAll appends many rows, failing atomically on the first bad
// row (nothing is inserted). The rows are copied into the tail's
// vectors; the caller's rows are never aliased.
func (t *Table) InsertAll(rows []Row) error {
	for _, r := range rows {
		if err := t.checkRow(r); err != nil {
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if t.open == nil {
			t.open = newOpenChunk(t.Columns, chunkRows)
		}
		t.open.add(r)
		if t.open.n == chunkRows {
			t.seal()
		}
	}
	return nil
}

// seal closes the open chunk, if any, onto the tail. Callers hold t.mu.
func (t *Table) seal() {
	if t.open != nil {
		t.tail = append(t.tail, &t.open.chunk)
		t.open = nil
	}
}

// AppendVectors appends n rows given column by column: cols[i] holds
// column i's n values. It fails atomically, with the error InsertAll
// reports for the same rows: the first offending row's first offending
// column. The table keeps the vectors already in their column's stored
// form and a typed copy of the others, so callers must not change them
// afterwards (vectors are immutable once handed on, in the executor as
// in the buffer pool).
func (t *Table) AppendVectors(n int, cols []*Vector) error {
	if n == 0 {
		return nil
	}
	if len(cols) != len(t.Columns) {
		return t.arityErr(len(cols))
	}
	stored := make([]*Vector, len(cols))
	badRow, badCol := n, -1
	for ci, v := range cols {
		if got := v.Len(); got != n {
			return fmt.Errorf("storage: table %q column %q: vector of %d rows in a chunk of %d", t.Name, t.Columns[ci].Name, got, n)
		}
		var r int
		if stored[ci], r = storedForm(v, t.Columns[ci].Type, min(n, badRow)); r < badRow {
			badRow, badCol = r, ci
		}
	}
	if badCol >= 0 {
		return typeErr(t.Name, t.Columns[badCol], cols[badCol].Value(badRow))
	}
	t.mu.Lock()
	t.seal()
	t.tail = append(t.tail, &chunk{n: n, cols: stored})
	t.mu.Unlock()
	return nil
}

// storedForm returns v in the stored form of a column of type typ, and
// the first row below limit the column rejects — limit when there is
// none. The vector is nil when a row fails, here or (limit below the
// row count) in an earlier column.
func storedForm(v *Vector, typ string, limit int) (*Vector, int) {
	switch {
	case v.Kind == expr.KindInt && typ == "int",
		v.Kind == expr.KindFloat && typ == "float",
		v.Kind == expr.KindString && typ == "string",
		v.Kind == expr.KindBool && typ == "bool" && isBoolDict(v.Dict):
		return v, limit
	case v.Kind == expr.KindInt && typ == "float":
		w := &Vector{Kind: expr.KindFloat, Floats: make([]float64, len(v.Ints)), Nulls: v.Nulls}
		for i, x := range v.Ints {
			w.Floats[i] = float64(x)
		}
		return w, limit
	}
	// Mixed kinds, a bool dictionary of its own, or a kind the column
	// rejects unless every row is NULL: value by value.
	n := v.Len()
	for r := 0; r < min(n, limit); r++ {
		if !fits(typ, v.Value(r)) {
			return nil, r
		}
	}
	if limit < n { // an earlier column fails first
		return nil, limit
	}
	o := newOpenChunk([]Column{{Type: typ}}, n)
	row := Row{{}}
	for r := 0; r < n; r++ {
		row[0] = v.Value(r)
		o.add(row)
	}
	return o.cols[0], limit
}

// isBoolDict reports whether a bool vector's dictionary codes false as
// 0 and true as 1, as the stored form does.
func isBoolDict(d []expr.Value) bool {
	return sameDict(d, boolDict) || (len(d) == 2 && !d[0].AsBool() && d[1].AsBool())
}

// sameDict reports whether two dictionaries are the same slice.
func sameDict(a, b []expr.Value) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// chunksRows is the row count of a chunk list.
func chunksRows(chunks []*chunk) int {
	n := 0
	for _, c := range chunks {
		n += c.n
	}
	return n
}

// span is rows [lo, hi) of one chunk: a page is cut as a run of spans.
type span struct {
	c      *chunk
	lo, hi int
}

// spanRows is the row count of a run of spans.
func spanRows(page []span) int {
	n := 0
	for _, s := range page {
		n += s.hi - s.lo
	}
	return n
}

// cutPages partitions the rows of chunks into page-sized runs: each
// run's encoded size fits pageSize except when a single row alone
// exceeds it (an oversize page). Pages do not follow chunk boundaries:
// a page is a run of spans.
func cutPages(ncols int, chunks []*chunk) [][]span {
	var pages [][]span
	var page []span
	n, bytes := 0, 0
	var sizes []int32
	for _, c := range chunks {
		sizes = c.rowSizes(sizes)
		lo := 0
		for r, rs := range sizes {
			if n > 0 && pageOverhead(ncols, n+1)+bytes+int(rs) > pageSize {
				if r > lo {
					page = append(page, span{c: c, lo: lo, hi: r})
				}
				pages = append(pages, page)
				page, n, bytes, lo = nil, 0, 0, r
			}
			n++
			bytes += int(rs)
		}
		if len(sizes) > lo {
			page = append(page, span{c: c, lo: lo, hi: len(sizes)})
		}
	}
	if n > 0 {
		pages = append(pages, page)
	}
	return pages
}

// rowSizes returns, through sizes (reused), the value bytes each row of
// c contributes to a page — its presence bits excluded.
func (c *chunk) rowSizes(sizes []int32) []int32 {
	if cap(sizes) < c.n {
		sizes = make([]int32, c.n)
	}
	sizes = sizes[:c.n]
	clear(sizes)
	for _, v := range c.cols {
		v.addSizes(sizes)
	}
	return sizes
}

// addSizes adds each row's raw encoded size in v, a vector in its
// column's stored form, to sizes: 8 bytes for a number, one for a bool,
// a length word and the bytes for a string, nothing for NULL.
func (v *Vector) addSizes(sizes []int32) {
	if v.Kind == expr.KindString {
		for i, code := range v.Codes[:len(sizes)] {
			if !v.IsNull(i) {
				sizes[i] += int32(4 + len(v.Dict[code].AsString()))
			}
		}
		return
	}
	w := int32(8)
	if v.Kind == expr.KindBool {
		w = 1
	}
	for i := range sizes {
		if !v.IsNull(i) {
			sizes[i] += w
		}
	}
}
