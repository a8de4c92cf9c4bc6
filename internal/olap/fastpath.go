package olap

// The vectorized fast path. A query runs in two phases over one
// storage snapshot, on typed column vectors throughout (storage.Vector:
// []int64, []float64, dictionary codes) — an expr.Value is built per
// dictionary entry, per group, per filter scratch row and per dice row,
// never per fact row on the way to an aggregate:
//
//	build  each joined dimension is scanned into a dimSide: its
//	       attribute columns as vectors, and an index from join key to
//	       row number — an array when the keys are dense integers
//	       (surrogate keys are), a hash map otherwise.
//	probe  the fact streams a chunk (a page) at a time through
//	       probeStar: foreign-key vectors → per join, a vector of
//	       dimension row numbers → the selection of joined rows (fan-out
//	       expanded) → filter → a starChunk of (fact position, dimension
//	       row numbers), which the consumer reads columns out of: the
//	       aggregate fold (starFold) as group codes and typed measure
//	       vectors for engine.HashAggregator.AddVectors, the dice as the
//	       narrow rows it must buffer.

import (
	"context"
	"fmt"
	"math"
	"slices"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/storage"
)

// maxExactInt bounds the integers float64 holds exactly: strictly
// inside ±2⁵³ two ints are Value.Equal — which compares numerics as
// float64s — exactly when they are the same int.
const maxExactInt = 1 << 53

// dictCoder assigns dense codes to one column's distinct values in
// first-seen order, bit-exactly: ints and floats by bit pattern,
// strings by content. Code c stands for dict[c].
//
// A string or bool vector arrives coded against a dictionary of its own
// (a page's, or a dimension column's): the coder translates that
// dictionary's entries onto its codes one entry at a time, the first
// time a row refers to the entry — so translating costs a hash per
// entry *referred to*, not per row and not per entry of a large
// dictionary few rows touch.
type dictCoder struct {
	dict []expr.Value
	strs map[string]uint32
	nums map[uint64]uint32 // int, float and bool values by bit pattern
	null uint32            // NULL's code + 1; 0 until one is coded

	src   []expr.Value // the source dictionary being translated
	remap []uint32     // per entry of src: the coder's code + 1, 0 until translated
}

func (c *dictCoder) assign(v expr.Value) uint32 {
	c.dict = append(c.dict, v)
	return uint32(len(c.dict) - 1)
}

func (c *dictCoder) str(v expr.Value) uint32 {
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

func (c *dictCoder) num(bits uint64, v expr.Value) uint32 {
	code, ok := c.nums[bits]
	if !ok {
		if c.nums == nil {
			c.nums = map[uint64]uint32{}
		}
		code = c.assign(v)
		c.nums[bits] = code
	}
	return code
}

func (c *dictCoder) nullCode() uint32 {
	if c.null == 0 {
		c.null = c.assign(expr.Value{}) + 1
	}
	return c.null - 1
}

// sameDict reports whether two dictionaries are the same slice — not
// merely equal. Dictionaries are immutable, so what was computed from
// one holds for as long as it is presented again: a dimension column
// presents the same one on every chunk.
func sameDict(a, b []expr.Value) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// from readies the translation of a source dictionary's codes, keeping
// what is already translated when dict is the dictionary in hand.
func (c *dictCoder) from(dict []expr.Value) {
	if sameDict(dict, c.src) {
		return
	}
	c.src, c.remap = dict, zeroed(c.remap, len(dict))
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

// of returns the coder's code of entry e of the source dictionary.
func (c *dictCoder) of(e uint32) uint32 {
	if code := c.remap[e]; code != 0 {
		return code - 1
	}
	var code uint32
	if v := c.src[e]; v.Kind() == expr.KindString {
		code = c.str(v)
	} else {
		bit := uint64(0)
		if v.AsBool() {
			bit = 1
		}
		code = c.num(bit, v)
	}
	c.remap[e] = code + 1
	return code
}

// code appends to out the code of each row sel picks from vec.
func (c *dictCoder) code(vec *storage.Vector, sel []int32, out []uint32) []uint32 {
	out = slices.Grow(out, len(sel))
	coded := vec.Kind == expr.KindString || vec.Kind == expr.KindBool
	if coded {
		c.from(vec.Dict)
	}
	for _, s := range sel {
		switch {
		case vec.IsNull(int(s)):
			out = append(out, c.nullCode())
		case coded:
			out = append(out, c.of(vec.Codes[s]))
		case vec.Kind == expr.KindInt:
			out = append(out, c.num(uint64(vec.Ints[s]), expr.Int(vec.Ints[s])))
		default:
			out = append(out, c.num(math.Float64bits(vec.Floats[s]), expr.Float(vec.Floats[s])))
		}
	}
	return out
}

// appendVector appends src's rows to dst, a vector of the same column
// accumulated over several chunks and sized on the first for rows
// rows. A string column's dictionaries are concatenated, each chunk's
// codes offset to its own: nothing is hashed, and entries repeat where
// chunks share values (consumers that need equal codes for equal
// values — the group coder — translate the entries they meet).
func appendVector(dst, src *storage.Vector, rows int) {
	at := dst.Len()
	dst.Kind = src.Kind
	switch src.Kind {
	case expr.KindInt:
		if dst.Ints == nil {
			dst.Ints = make([]int64, 0, rows)
		}
		dst.Ints = append(dst.Ints, src.Ints...)
	case expr.KindFloat:
		if dst.Floats == nil {
			dst.Floats = make([]float64, 0, rows)
		}
		dst.Floats = append(dst.Floats, src.Floats...)
	default:
		if dst.Codes == nil {
			dst.Codes = make([]uint32, 0, rows)
		}
		base := uint32(0)
		if src.Kind == expr.KindBool {
			dst.Dict = src.Dict // every bool vector shares one dictionary
		} else {
			base = uint32(len(dst.Dict))
			dst.Dict = append(dst.Dict, src.Dict...)
		}
		for _, code := range src.Codes {
			dst.Codes = append(dst.Codes, base+code)
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

// dimSide is one dimension's build side: the columns the query reads
// (the join's buildCols) of every scanned dimension row, as vectors,
// plus an index from join key to row numbers. It is immutable once
// built, so any number of probes share it.
type dimSide struct {
	cols []*storage.Vector // one per buildCol

	// The key index is one of two representations, chosen from the key
	// column: dense when it is an int column whose keys lie strictly
	// inside ±2⁵³ and span at most a small multiple of their count
	// (dense[key-min] is the first row carrying the key, plus one; 0
	// means none), heads otherwise. heads is keyed by the key's code,
	// exact in every case: a numeric key's float64 bit pattern — what
	// Value.Equal compares, so Int 3 meets Float 3.0 — a string key's
	// code in keyStrs, a bool's 0 or 1.
	keyKind expr.Kind
	min     int64
	dense   []int32
	heads   map[uint64]int32
	keyStrs map[string]uint32
	// next chains the later rows of a key in insertion order, as row+1
	// with 0 ending the chain (nil when no key repeats — surrogate keys).
	next []int32
}

// floatCode is a numeric key's code; ok is false for NaN, which equals
// nothing.
func floatCode(f float64) (code uint64, ok bool) {
	if f != f {
		return 0, false
	}
	if f == 0 {
		f = 0 // -0 equals +0
	}
	return math.Float64bits(f), true
}

func (d *dimSide) numericKey() bool {
	return d.keyKind == expr.KindInt || d.keyKind == expr.KindFloat
}

// denseAt is the dense index's lookup: the first row whose key is k, or
// -1. (A key so far from min that the subtraction wraps lands outside
// the array too.)
func (d *dimSide) denseAt(k int64) int32 {
	if i := uint64(k - d.min); i < uint64(len(d.dense)) {
		return d.dense[i] - 1
	}
	return -1
}

// firstNumeric returns the first row whose (numeric) key equals f, or
// -1, on either index.
func (d *dimSide) firstNumeric(f float64) int32 {
	if d.dense != nil {
		if f > -maxExactInt && f < maxExactInt && f == math.Trunc(f) {
			return d.denseAt(int64(f))
		}
		return -1
	}
	if code, ok := floatCode(f); ok {
		if r, ok := d.heads[code]; ok {
			return r
		}
	}
	return -1
}

// first returns the first row whose key equals k, or -1: the lookup
// for one value, which the vector lookup makes once per dictionary
// entry of a string or bool foreign key.
func (d *dimSide) first(k expr.Value) int32 {
	switch {
	case k.IsNumeric() && d.numericKey():
		if k.Kind() == expr.KindInt && d.dense != nil {
			return d.denseAt(k.AsInt())
		}
		f, _ := k.AsFloat()
		return d.firstNumeric(f)
	case k.Kind() != d.keyKind:
		return -1 // NULL, or kinds that are never Equal
	}
	code := uint64(0)
	if k.Kind() == expr.KindString {
		c, ok := d.keyStrs[k.AsString()]
		if !ok {
			return -1
		}
		code = uint64(c)
	} else if k.AsBool() {
		code = 1
	}
	if r, ok := d.heads[code]; ok {
		return r
	}
	return -1
}

// lookup resolves a chunk's foreign keys: out[i] becomes the first
// dimension row whose key equals fk's row i, or -1. perCode is scratch.
func (d *dimSide) lookup(fk *storage.Vector, out []int32, perCode *[]int32) {
	numericKey := d.numericKey()
	switch {
	case fk.Kind == expr.KindInt && d.dense != nil:
		for i, k := range fk.Ints {
			out[i] = d.denseAt(k)
		}
	case fk.Kind == expr.KindInt && numericKey:
		for i, k := range fk.Ints {
			out[i] = d.firstNumeric(float64(k))
		}
	case fk.Kind == expr.KindFloat && numericKey:
		for i, f := range fk.Floats {
			out[i] = d.firstNumeric(f)
		}
	case fk.Kind == expr.KindString || fk.Kind == expr.KindBool:
		rows := (*perCode)[:0] // one lookup per dictionary entry
		for _, v := range fk.Dict {
			rows = append(rows, d.first(v))
		}
		if len(rows) == 0 {
			rows = append(rows, -1) // an all-NULL chunk's zero codes name no entry
		}
		*perCode = rows
		for i, code := range fk.Codes {
			out[i] = rows[code]
		}
	default:
		for i := range out {
			out[i] = -1
		}
	}
	if fk.Nulls != nil {
		for i := range out {
			if fk.IsNull(i) {
				out[i] = -1
			}
		}
	}
}

// after returns the next row after r carrying the same key, or -1.
func (d *dimSide) after(r int32) int32 {
	if d.next == nil {
		return -1
	}
	return d.next[r] - 1
}

// columnsOf resolves column names to a view's physical positions.
func columnsOf(view *storage.TableView, names ...string) ([]int, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		j, ok := view.ColumnIndex(name)
		if !ok {
			return nil, fmt.Errorf("olap: deployed table %q lacks column %q", view.Name(), name)
		}
		idx[i] = j
	}
	return idx, nil
}

// buildDimSide scans one dimension into its build side. The scan
// pushes the dimension's filter conjuncts into the cursor: pruned pages
// hold only rows the post-join filter would reject, so dropping them
// from the (inner) join's build side removes no surviving row.
func buildDimSide(ctx context.Context, view *storage.TableView, sj *starJoin) (*dimSide, error) {
	phys, err := columnsOf(view, append([]string{sj.refCol}, sj.buildCols...)...)
	if err != nil {
		return nil, err
	}
	rows := int(view.NumRows()) // pruning can only scan fewer
	if rows > math.MaxInt32 {
		return nil, fmt.Errorf("olap: dimension table %q has too many rows to index", view.Name())
	}
	d := &dimSide{cols: make([]*storage.Vector, len(sj.buildCols))}
	for i := range d.cols {
		d.cols[i] = &storage.Vector{}
	}
	if d.keyKind, err = expr.ParseKind(view.Columns()[phys[0]].Type); err != nil {
		return nil, err
	}
	// An int key column is read once ahead, for the range of its keys:
	// that decides between the two index representations.
	if d.keyKind == expr.KindInt {
		if err := d.sizeDense(ctx, view.Cursor(sj.preds), phys[0]); err != nil {
			return nil, err
		}
	}
	if d.dense == nil {
		d.heads = make(map[uint64]int32, rows)
	}
	var (
		keys dictCoder // a string key column's dictionary: the index's codes
		vecs = make([]*storage.Vector, len(phys))
		at   = 0 // rows scanned so far
	)
	cur := view.Cursor(sj.preds)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := cur.NextVectors(phys, vecs)
		if n == 0 {
			break
		}
		d.indexKeys(vecs[0], at, rows, &keys)
		for i, col := range d.cols {
			appendVector(col, vecs[i+1], rows)
		}
		at += n
	}
	d.keyStrs = keys.strs
	d.orderChains()
	return d, nil
}

// sizeDense reads the int key column through cur and, when the keys
// lie strictly inside ±2⁵³ and span at most a small multiple of their
// count, allocates the dense index for them.
func (d *dimSide) sizeDense(ctx context.Context, cur *storage.Cursor, keyCol int) error {
	n, lo, hi := 0, int64(0), int64(0)
	vecs := make([]*storage.Vector, 1)
	for cur.NextVectors([]int{keyCol}, vecs) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		for r, k := range vecs[0].Ints {
			if vecs[0].IsNull(r) {
				continue
			}
			if n == 0 || k < lo {
				lo = k
			}
			if n == 0 || k > hi {
				hi = k
			}
			n++
		}
	}
	if n > 0 && lo > -maxExactInt && hi < maxExactInt && uint64(hi-lo) < 8*uint64(n)+1024 {
		d.min, d.dense = lo, make([]int32, hi-lo+1)
	}
	return nil
}

// indexKeys enters one chunk of the key column into the index; the
// chunk's first row is dimension row at. A row whose key is already
// present is prepended to the key's chain, so until orderChains runs
// the chains are in reverse insertion order.
func (d *dimSide) indexKeys(key *storage.Vector, at, rows int, coder *dictCoder) {
	if key.Kind == expr.KindString {
		coder.from(key.Dict)
	}
	for i, n := 0, key.Len(); i < n; i++ {
		if key.IsNull(i) {
			continue
		}
		r := int32(at + i)
		if d.dense != nil {
			slot := &d.dense[key.Ints[i]-d.min]
			d.chain(r, *slot-1, rows)
			*slot = r + 1
			continue
		}
		code, ok := uint64(0), true
		switch key.Kind {
		case expr.KindInt:
			code, ok = floatCode(float64(key.Ints[i]))
		case expr.KindFloat:
			code, ok = floatCode(key.Floats[i])
		case expr.KindString:
			code = uint64(coder.of(key.Codes[i]))
		default:
			code = uint64(key.Codes[i]) // bool: 0 or 1
		}
		if !ok {
			continue
		}
		head, dup := d.heads[code]
		if !dup {
			head = -1
		}
		d.chain(r, head, rows)
		d.heads[code] = r
	}
}

// chain makes row r the head of a key's chain, before head (-1: none).
func (d *dimSide) chain(r, head int32, rows int) {
	if head < 0 {
		return
	}
	if d.next == nil {
		d.next = make([]int32, rows)
	}
	d.next[r] = head + 1
}

// orderChains reverses every chain into insertion order.
func (d *dimSide) orderChains() {
	if d.next == nil {
		return
	}
	reversed := func(head int32) int32 {
		prev, cur := int32(0), head+1 // as row+1; 0 ends a chain
		for cur != 0 {
			cur, d.next[cur-1], prev = d.next[cur-1], prev, cur
		}
		return prev - 1
	}
	for i, slot := range d.dense {
		if slot != 0 {
			d.dense[i] = reversed(slot-1) + 1
		}
	}
	for code, head := range d.heads {
		d.heads[code] = reversed(head)
	}
}

// buildDimSides runs the build phase: one dimSide per joined
// dimension. With a MatAgg attached, built sides are cached per
// (version, dimension rows, join shape) and reused across concurrent
// queries until the next republish.
func (e *Engine) buildDimSides(ctx context.Context, p *starPlan, snap *storage.Snapshot) ([]*dimSide, error) {
	var cache *dimCache
	if e.mat != nil {
		cache = e.mat.dims
	}
	sides := make([]*dimSide, len(p.joins))
	for i, sj := range p.joins {
		view, ok := snap.Table(sj.def.Name)
		if !ok {
			return nil, fmt.Errorf("olap: snapshot lacks dimension table %q", sj.def.Name)
		}
		key := ""
		if cache != nil {
			key = dimKey(sj, view.NumRows())
			if d, ok := cache.get(snap.Version(), key); ok {
				sides[i] = d
				continue
			}
		}
		d, err := buildDimSide(ctx, view, sj)
		if err != nil {
			return nil, err
		}
		if cache != nil {
			cache.put(snap.Version(), key, d)
		}
		sides[i] = d
	}
	return sides, nil
}

// starChunk is what the probe emits for one fact chunk: the joined
// rows that passed the filter, each as its position in the chunk's
// fact vectors and the dimension row it joined per join. It is valid
// until emit returns.
type starChunk struct {
	p     *starPlan
	sides []*dimSide
	fact  []*storage.Vector // by position in p.cols; nil for dimension columns
	pos   []int32
	dim   [][]int32
}

// column returns the vector holding plan column i and, for every row of
// the chunk, its row in that vector.
func (c *starChunk) column(i int) (*storage.Vector, []int32) {
	pc := c.p.cols[i]
	if pc.join < 0 {
		return c.fact[i], c.pos
	}
	return c.sides[pc.join].cols[pc.col], c.dim[pc.join]
}

// appendRows materialises the chunk as narrow rows (p.cols wide, cut
// from one slab) appended to dst: the form the dice buffers.
func (c *starChunk) appendRows(dst [][]expr.Value) [][]expr.Value {
	width, n := len(c.p.cols), len(c.pos)
	slab := make([]expr.Value, n*width)
	for i := 0; i < width; i++ {
		vec, sel := c.column(i)
		for j, s := range sel {
			slab[j*width+i] = vec.Value(int(s))
		}
	}
	for j := 0; j < n; j++ {
		dst = append(dst, slab[j*width:(j+1)*width:(j+1)*width])
	}
	return dst
}

// starFilter applies the plan's filter to a chunk's joined rows. The
// filter is evaluated by expr.EvalBool — the oracle's evaluator, so
// NULL and error semantics are its — over a scratch row holding only
// the columns the filter names, a row at a time in joined order.
//
// One shortcut, still through the same evaluator: when the filter's
// first conjunct reads a single column and that column is dictionary
// coded (a string or bool vector), the conjunct is evaluated once per
// dictionary entry the rows refer to. Where it is false the whole
// conjunction is false before anything else is evaluated — AND
// short-circuits on a false left operand — so later rows carrying that
// entry are dropped unevaluated. Entries on which it is true, NULL or
// an error decide nothing: their rows are evaluated in full.
type starFilter struct {
	node    expr.Node
	env     *expr.SliceEnv
	scratch []expr.Value // one slot per identifier of the filter
	cols    []int        // plan column of each slot
	vecs    []*storage.Vector
	sels    [][]int32

	lead     expr.Node    // the first conjunct, when it reads one column
	leadSlot int          // that column's slot
	leadDict []expr.Value // the dictionary the verdicts are about
	verdicts []uint8      // per entry: 0 not evaluated yet, else leadFalse or leadOpen
}

const (
	leadFalse = 1 + iota // the first conjunct is false on the entry: its rows fail
	leadOpen             // true, NULL or an error: the rows are evaluated in full
)

func newStarFilter(p *starPlan) *starFilter {
	f := &starFilter{node: p.filter}
	slots := map[string]int{}
	for _, id := range expr.Idents(p.filter) {
		slots[id] = len(f.cols)
		f.cols = append(f.cols, p.index[id])
	}
	f.env = expr.NewSliceEnv(slots)
	f.scratch = make([]expr.Value, len(f.cols))
	f.env.Bind(f.scratch)
	f.vecs = make([]*storage.Vector, len(f.cols))
	f.sels = make([][]int32, len(f.cols))
	if first := expr.Conjuncts(p.filter)[0]; len(expr.Idents(first)) == 1 {
		f.lead, f.leadSlot = first, slots[expr.Idents(first)[0]]
	}
	return f
}

// failsLead reports whether the first conjunct is false on a
// dictionary entry of the lead column, evaluating it the first time the
// entry is asked about.
func (f *starFilter) failsLead(entry uint32) bool {
	if f.verdicts[entry] == 0 {
		f.scratch[f.leadSlot] = f.leadDict[entry]
		v, err := expr.Eval(f.lead, f.env.Env())
		f.verdicts[entry] = leadOpen
		if err == nil && v.Kind() == expr.KindBool && !v.AsBool() {
			f.verdicts[entry] = leadFalse
		}
	}
	return f.verdicts[entry] == leadFalse
}

// apply drops from the chunk the rows the filter does not accept.
func (f *starFilter) apply(c *starChunk) error {
	for i, ci := range f.cols {
		f.vecs[i], f.sels[i] = c.column(ci)
	}
	var lead *storage.Vector // the lead column, when the shortcut applies to it
	if f.lead != nil {
		if vec := f.vecs[f.leadSlot]; vec.Kind == expr.KindString || vec.Kind == expr.KindBool {
			lead = vec
			if !sameDict(vec.Dict, f.leadDict) {
				f.leadDict, f.verdicts = vec.Dict, zeroed(f.verdicts, len(vec.Dict))
			}
		}
	}
	ev, kept := f.env.Env(), 0
	for j := range c.pos {
		if lead != nil {
			if s := int(f.sels[f.leadSlot][j]); !lead.IsNull(s) && f.failsLead(lead.Codes[s]) {
				continue
			}
		}
		for i, vec := range f.vecs {
			f.scratch[i] = vec.Value(int(f.sels[i][j]))
		}
		ok, err := expr.EvalBool(f.node, ev)
		if err != nil {
			return err
		}
		if ok {
			c.pos[kept] = c.pos[j]
			for k := range c.dim {
				c.dim[k][kept] = c.dim[k][j]
			}
			kept++
		}
	}
	c.pos = c.pos[:kept]
	for k := range c.dim {
		c.dim[k] = c.dim[k][:kept]
	}
	return nil
}

// sized returns s with length n, reallocated only when it is too small
// (its contents are about to be overwritten).
func sized(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// probeStar runs the probe phase, the one loop behind Query,
// QueryPartial, the aggregate refresh and the dice: stream the fact a
// chunk at a time, resolve each foreign-key vector to a vector of
// dimension row numbers, select the joined rows, filter them
// (starFilter), and hand the chunk to emit. Row order is the joined order of the oracle's
// flow: fact order, and for a fact row matching several dimension
// rows, build insertion order with the last join varying fastest.
//
// Cancellation is checked at every chunk boundary — the places a query
// spends its time — so an abandoned query releases its resources
// promptly.
func (e *Engine) probeStar(ctx context.Context, p *starPlan, snap *storage.Snapshot, sides []*dimSide, emit func(*starChunk) error) error {
	factView, ok := snap.Table(p.fact.Name)
	if !ok {
		return fmt.Errorf("olap: snapshot lacks fact table %q", p.fact.Name)
	}
	// The fact columns to read, by physical position: each join's key,
	// then the fact columns among p.cols.
	var names []string
	for _, sj := range p.joins {
		names = append(names, sj.fkCol)
	}
	var factCols []int // positions in p.cols
	for i, c := range p.cols {
		if c.join < 0 {
			names = append(names, p.fact.Columns[c.col].Name)
			factCols = append(factCols, i)
		}
	}
	phys, err := columnsOf(factView, names...)
	if err != nil {
		return err
	}
	var (
		vecs    = make([]*storage.Vector, len(phys))
		chunk   = &starChunk{p: p, sides: sides, fact: make([]*storage.Vector, len(p.cols))}
		match   = make([]int32, len(sides)) // current match per join, expanding a fan-out
		perCode []int32
		// The joined rows of a chunk as (fact position, dimension row per
		// join): sel before fan-out, wide after.
		sel, wide struct {
			pos []int32
			dim [][]int32
		}
		fanOut bool
	)
	sel.dim, wide.dim = make([][]int32, len(sides)), make([][]int32, len(sides))
	for _, s := range sides {
		fanOut = fanOut || s.next != nil
	}
	var filter *starFilter
	if p.filter != nil {
		filter = newStarFilter(p)
	}
	// The cursor skips fact pages that the pushed-down conjuncts' zone
	// maps prove empty of qualifying rows.
	factCur := factView.Cursor(p.factPreds)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := factCur.NextVectors(phys, vecs)
		if n == 0 {
			return nil
		}
		for j, i := range factCols {
			chunk.fact[i] = vecs[len(sides)+j]
		}
		// Resolve each join's keys to first matches, then keep, in place,
		// the fact rows every join matched.
		for k, s := range sides {
			sel.dim[k] = sized(sel.dim[k], n)
			s.lookup(vecs[k], sel.dim[k], &perCode)
		}
		sel.pos = sized(sel.pos, n)
		kept := 0
	rows:
		for i := 0; i < n; i++ {
			for _, matched := range sel.dim {
				if matched[i] < 0 {
					continue rows
				}
			}
			sel.pos[kept] = int32(i)
			for _, matched := range sel.dim {
				matched[kept] = matched[i]
			}
			kept++
		}
		sel.pos = sel.pos[:kept]
		for k := range sel.dim {
			sel.dim[k] = sel.dim[k][:kept]
		}
		chunk.pos, chunk.dim = sel.pos, sel.dim
		if fanOut {
			// Some key repeats in some dimension: expand each selected
			// row into every combination of its matches, the last join
			// varying fastest.
			wide.pos = wide.pos[:0]
			for k := range sides {
				wide.dim[k] = wide.dim[k][:0]
			}
			for j, i := range sel.pos {
				for k := range sides {
					match[k] = sel.dim[k][j]
				}
				for {
					wide.pos = append(wide.pos, i)
					for k := range sides {
						wide.dim[k] = append(wide.dim[k], match[k])
					}
					k := len(sides) - 1
					for ; k >= 0; k-- {
						if match[k] = sides[k].after(match[k]); match[k] >= 0 {
							break
						}
						match[k] = sel.dim[k][j]
					}
					if k < 0 {
						break
					}
				}
			}
			chunk.pos, chunk.dim = wide.pos, wide.dim
		}
		if filter != nil {
			if err := filter.apply(chunk); err != nil {
				return err
			}
		}
		if err := emit(chunk); err != nil {
			return err
		}
	}
}

// starFold is the aggregating consumer of the probe: it reads each
// chunk's group columns as dictionary codes (one dictCoder per group
// column, so codes mean the same value on every chunk) and its
// aggregate inputs as gathered typed vectors, and folds them through
// the kernel's vector entry.
type starFold struct {
	p        *starPlan
	agg      *engine.HashAggregator
	coders   []dictCoder
	groups   []engine.GroupVector
	gathered []*storage.Vector // by position in p.cols; nil until an aggregate reads the column
	measures []*storage.Vector // per aggregate: its column's entry in gathered
}

func newStarFold(p *starPlan) (*starFold, error) {
	agg, err := engine.NewHashAggregator(p.groupIdx, p.aggs, p.aggIdx)
	if err != nil {
		return nil, err
	}
	f := &starFold{p: p, agg: agg,
		coders:   make([]dictCoder, len(p.groupIdx)),
		groups:   make([]engine.GroupVector, len(p.groupIdx)),
		gathered: make([]*storage.Vector, len(p.cols)),
		measures: make([]*storage.Vector, len(p.aggs)),
	}
	for i, ci := range p.aggIdx {
		if ci >= 0 {
			if f.gathered[ci] == nil {
				f.gathered[ci] = &storage.Vector{}
			}
			f.measures[i] = f.gathered[ci]
		}
	}
	return f, nil
}

func (f *starFold) add(c *starChunk) error {
	for g, ci := range f.p.groupIdx {
		vec, sel := c.column(ci)
		f.groups[g].Codes = f.coders[g].code(vec, sel, f.groups[g].Codes[:0])
		f.groups[g].Dict = f.coders[g].dict
	}
	for ci, dst := range f.gathered {
		if dst != nil {
			vec, sel := c.column(ci)
			vec.Gather(dst, sel)
		}
	}
	return f.agg.AddVectors(len(c.pos), f.groups, f.measures)
}

// execFast runs the plan on the vectorized fast path over a snapshot:
// build per-dimension sides (buildDimSides), stream the fact through
// join → filter → (dice) → aggregation (probeStar), sort, and return
// the in-memory result. Nothing is written to any database.
func (e *Engine) execFast(ctx context.Context, p *starPlan, snap *storage.Snapshot) (*Result, error) {
	sides, err := e.buildDimSides(ctx, p, snap)
	if err != nil {
		return nil, err
	}
	fold, err := newStarFold(p)
	if err != nil {
		return nil, err
	}
	class := ClassFast
	if p.dice == nil {
		err = e.probeStar(ctx, p, snap, sides, fold.add)
	} else {
		// The dice reads detail rows and keeps them: buffer the joined
		// rows, cut the diamond, aggregate the survivors.
		class = ClassDice
		var detail [][]expr.Value
		err = e.probeStar(ctx, p, snap, sides, func(c *starChunk) error {
			detail = c.appendRows(detail)
			return nil
		})
		if err == nil {
			if detail, err = diceFast(detail, p.dice.at(p.index)); err == nil {
				err = fold.agg.Add(detail)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	rows := engine.SortRowsBy(fold.agg.Result(), leading(len(p.groupBy)))
	return &Result{Columns: p.resultColumns(), Rows: rows, Version: snap.Version(), Class: class}, nil
}
