package engine

import (
	"fmt"
	"math"
	"sync"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// JoinIndex is the build side of an equi-join over column vectors — the
// one join index in the repository: the ETL executor's Join, HashJoin
// and every dimension of the OLAP fast path (and its cache) build one.
// It holds the build rows' columns, accumulated batch by batch as
// vectors (Cols), and an index from key to the rows carrying it, in
// insertion order. A key matches by Value.Equal — Int 3 meets Float 3.0
// but Int 2⁵³+1 does not meet Float 2⁵³, −0 meets +0 — and NULL and NaN
// match nothing, as in SQL.
//
// Each key column is numbered by a keyCoder: an int column whose keys
// span at most a small multiple of their count is numbered by
// arithmetic (key − min: the dense index surrogate keys get), any other
// by identity (expr.Key) through the aggregation's coder (dictCoder).
// A composite key's tuple of column numbers is numbered in turn, one
// column at a time. The numbers are dense, so first, the head of each
// key's chain of rows, is an array.
//
// Once Finish has run the index is immutable, and any number of
// JoinProbes read it at once.
type JoinIndex struct {
	// Cols holds the build rows' columns, one vector per column added.
	Cols []*storage.Vector
	acc  []accumulator
	keys [][]*storage.Vector // per key column: the vectors added, until Finish
	rows int

	coders []keyCoder
	// pairs numbers a composite key's tuples: pairs[j-1] maps (number of
	// the tuple of key columns 0..j-1, key column j's number) to the
	// number of the tuple of columns 0..j.
	pairs []map[uint64]uint32
	first []int32 // per key number: the first row carrying it + 1, 0 for none
	// next chains the later rows of a key in insertion order, as row+1
	// with 0 ending the chain (nil when no key repeats — surrogate keys).
	next []int32
	last []int32 // while indexing: per key number, the end of its chain + 1

	groups []lazyGroupCodes // per column: GroupCodes, made on first use
}

type lazyGroupCodes struct {
	once  sync.Once
	codes GroupCodes
}

// NewJoinIndex starts a build side of width columns and keys key
// columns; rows, when known, sizes the columns.
func NewJoinIndex(width, keys, rows int) *JoinIndex {
	x := &JoinIndex{Cols: make([]*storage.Vector, width), acc: make([]accumulator, width),
		keys: make([][]*storage.Vector, keys), coders: make([]keyCoder, keys), pairs: make([]map[uint64]uint32, keys-1),
		groups: make([]lazyGroupCodes, width)}
	for i := range x.Cols {
		x.Cols[i] = &storage.Vector{}
		x.acc[i] = accumulator{vec: x.Cols[i], rows: rows}
	}
	return x
}

// Add appends a batch of n build rows: cols, one vector per column, are
// copied into Cols, so the caller may reuse them; keys, one vector per
// key column, are read by Finish and kept until then — they must not
// change. (A key column that is also a column of the rows is passed in
// both.) Rows are added before Finish: adding after it panics.
func (x *JoinIndex) Add(n int, cols, keys []*storage.Vector) {
	if x.keys == nil {
		panic("engine: JoinIndex.Add after Finish: the build side is complete")
	}
	for i := range x.acc {
		x.acc[i].add(cols[i])
	}
	for j, key := range keys {
		x.keys[j] = append(x.keys[j], key)
	}
	x.rows += n
}

// FansOut reports whether some key is carried by more than one row.
func (x *JoinIndex) FansOut() bool { return x.next != nil }

// After returns the next row after r carrying the same key, or -1.
func (x *JoinIndex) After(r int32) int32 {
	if x.next == nil {
		return -1
	}
	return x.next[r] - 1
}

// Finish indexes the rows added.
func (x *JoinIndex) Finish() error {
	if x.rows > math.MaxInt32 {
		return fmt.Errorf("engine: join build side of %d rows is too large to index", x.rows)
	}
	for j := range x.coders {
		x.coders[j].sizeDense(x.keys[j])
	}
	if c := &x.coders[0]; len(x.coders) == 1 && c.dense {
		// Surrogate keys: a key is its own number, key − min.
		x.first = make([]int32, c.span)
		at := 0
		for _, key := range x.keys[0] {
			for i, k := range key.Ints {
				if !key.IsNull(i) {
					x.enter(at+i, int32(k-c.min))
				}
			}
			at += len(key.Ints)
		}
	} else {
		numbers, column := make([]int32, x.rows), make([]int32, x.rows) // each row's key number, -1 for none
		x.coders[0].numberAll(x.keys[0], numbers)
		keys := x.coders[0].numbers()
		for j := 1; j < len(x.coders); j++ {
			x.coders[j].numberAll(x.keys[j], column)
			pairs := map[uint64]uint32{}
			for r, t := range numbers {
				if t < 0 || column[r] < 0 {
					numbers[r] = -1
					continue
				}
				pair := uint64(t)<<32 | uint64(column[r])
				n, ok := pairs[pair]
				if !ok {
					n = uint32(len(pairs))
					pairs[pair] = n
				}
				numbers[r] = int32(n)
			}
			x.pairs[j-1], keys = pairs, len(pairs)
		}
		x.first = make([]int32, keys)
		for r, t := range numbers {
			if t >= 0 {
				x.enter(r, t)
			}
		}
	}
	x.keys, x.last = nil, nil
	return nil
}

// GroupCodes returns column c of the finished index numbered for
// grouping: a code per build row by identity, by the aggregation
// kernel's own coder (dictCoder). A probe hands it to AddVectors with
// the column (Column.Group), so a build column grouped by is coded once
// per build row rather than once per probe row joined to it, and an
// aggregator that meets it first takes its codes as they are. It is
// made on the first call and shared by every later one, from any
// goroutine.
func (x *JoinIndex) GroupCodes(c int) *GroupCodes {
	g := &x.groups[c]
	g.once.Do(func() {
		var coder dictCoder
		col := x.Cols[c]
		g.codes = GroupCodes{Codes: coder.code(Column{Vec: col}, col.Len(), nil), Dict: coder.dict}
	})
	return &g.codes
}

// enter appends row r to the chain of key number t.
func (x *JoinIndex) enter(r int, t int32) {
	row := int32(r) + 1 // as row+1
	if x.first[t] == 0 {
		x.first[t] = row
		return
	}
	if x.next == nil {
		x.next, x.last = make([]int32, x.rows), make([]int32, len(x.first))
	}
	tail := x.last[t]
	if tail == 0 {
		tail = x.first[t]
	}
	x.next[tail-1], x.last[t] = row, row
}

// keyCoder numbers the distinct values of one key column of a build
// side by their identity (expr.Value.Key), under which a non-NULL key
// is its Equal ones' but for NaN, which equals nothing and gets no
// number. A dense int column is numbered key − min, fixed once the
// whole build side is seen, so that a probe reads the index array at
// its key without a lookup; any other is numbered by the grouping's
// coder, in first-seen order.
type keyCoder struct {
	dense bool
	min   int64
	span  int // dense: numbers are key − min, in [0, span)

	keys dictCoder // when not dense
}

func (c *keyCoder) numbers() int {
	if c.dense {
		return c.span
	}
	return len(c.keys.dict)
}

// sizeDense decides the representation: dense when the column is an
// int column whose keys span at most a small multiple of their count.
func (c *keyCoder) sizeDense(keys []*storage.Vector) {
	n, lo, hi := 0, int64(0), int64(0)
	for _, key := range keys {
		if key.Kind != expr.KindInt {
			return
		}
		for r, k := range key.Ints {
			if key.IsNull(r) {
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
	if n > 0 && denseSpan(uint64(hi-lo), n) {
		c.dense, c.min, c.span = true, lo, int(hi-lo+1)
	}
}

// assign returns the non-NULL key k's number, handing out the next one
// to a value not seen before (the coder is not dense); NaN gets none.
func (c *keyCoder) assign(k expr.Value) int32 {
	if !k.Equal(k) {
		return -1
	}
	return int32(c.keys.value(k))
}

// entryNumbers holds the numbers of a dictionary's entries, each
// looked up the first time a row refers to it (as number + 2: 0 until
// then).
type entryNumbers struct {
	dict []expr.Value
	n    []int32
}

// numberAll numbers every row of a key column given as the vectors
// added, in order, handing out numbers. The entries it translates are
// this coder's: another key column presenting the same dictionary (two
// bool columns, a column named twice) is numbered by its own coder.
func (c *keyCoder) numberAll(keys []*storage.Vector, out []int32) {
	var entries entryNumbers
	at := 0
	for _, key := range keys {
		c.number(key, out[at:at+key.Len()], &entries, true)
		at += key.Len()
	}
}

// number writes the number of every row of key: -1 for NULL and for a
// key no build row carries, unless assign — the build side — hands out
// the next number to a key not seen before instead.
func (c *keyCoder) number(key *storage.Vector, out []int32, entries *entryNumbers, assign bool) {
	one := c.lookup
	if assign {
		one = c.assign
	}
	switch {
	case key.Kind == expr.KindInt && c.dense:
		for r, k := range key.Ints {
			out[r] = c.int(k)
		}
	case key.Coded(): // one lookup per dictionary entry a row refers to
		if !sameDict(key.Dict, entries.dict) {
			entries.dict, entries.n = key.Dict, extend(entries.n[:0], len(key.Dict))
		}
		for r, e := range key.Codes {
			if key.IsNull(r) {
				continue
			}
			if entries.n[e] == 0 {
				entries.n[e] = one(key.Dict[e]) + 2
			}
			out[r] = entries.n[e] - 2
		}
	default: // a probe's floats, and the ints of a side that is not dense
		for r := range out {
			if !key.IsNull(r) {
				out[r] = one(key.Value(r))
			}
		}
	}
	for r := 0; key.Nulls != nil && r < len(out); r++ {
		if key.IsNull(r) {
			out[r] = -1
		}
	}
}

// int returns the dense number of the int key k, or -1.
func (c *keyCoder) int(k int64) int32 {
	if i := uint64(k - c.min); i < uint64(c.span) {
		return int32(i)
	}
	return -1
}

// lookup returns the number of the key k, or -1.
func (c *keyCoder) lookup(k expr.Value) int32 {
	if !c.dense {
		if n, ok := c.keys.find(k); ok {
			return int32(n)
		}
	} else if i, ok := k.Key().Int(); ok {
		return c.int(i)
	}
	return -1
}

// JoinProbe resolves probe-side keys against one JoinIndex. It keeps
// the translation of the dictionaries it last met, so it belongs to one
// probing goroutine; the index it reads is shared.
type JoinProbe struct {
	x       *JoinIndex
	entries []entryNumbers // per key column
	column  []int32
}

// Probe returns a new probe of the finished index.
func (x *JoinIndex) Probe() *JoinProbe {
	return &JoinProbe{x: x, entries: make([]entryNumbers, len(x.coders))}
}

// Lookup resolves a batch of n probe rows, keys holding its key
// columns: out[r] becomes the first build row whose key equals row r's,
// or -1.
func (p *JoinProbe) Lookup(n int, keys []*storage.Vector, out []int32) {
	x := p.x
	out = out[:n]
	if c := &x.coders[0]; len(keys) == 1 && c.dense && keys[0].Kind == expr.KindInt && keys[0].Nulls == nil {
		// The surrogate-key join: a key is its own number, key − min.
		for r, k := range keys[0].Ints {
			out[r] = -1
			if i := uint64(k - c.min); i < uint64(len(x.first)) {
				out[r] = x.first[i] - 1
			}
		}
		return
	}
	x.coders[0].number(keys[0], out, &p.entries[0], false)
	for j := 1; j < len(keys); j++ {
		p.column = Sized(p.column, n)
		x.coders[j].number(keys[j], p.column, &p.entries[j], false)
		for r, t := range out {
			if t < 0 {
				continue
			}
			out[r] = -1
			if c := p.column[r]; c >= 0 {
				if m, ok := x.pairs[j-1][uint64(t)<<32|uint64(c)]; ok {
					out[r] = int32(m)
				}
			}
		}
	}
	for r, t := range out {
		if t >= 0 {
			out[r] = x.first[t] - 1
		}
	}
}
