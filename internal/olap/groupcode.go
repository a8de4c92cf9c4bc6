package olap

// Dictionary-coded group-by keys for the fast path: string group-key
// values are swapped for dense int codes before rows enter the hash
// aggregator and decoded back on the surviving groups at emit, so the
// aggregator hashes and compares 8-byte ints instead of strings.
// Coding assigns codes in first-seen order and is a bijection on the
// values actually seen, so rows partition into exactly the same
// groups in exactly the same first-seen order — the aggregation
// itself is untouched (same engine.HashAggregator, same fold order),
// keeping fast-path results byte-identical to the oracle's.

import (
	"unsafe"

	"quarry/internal/expr"
)

// strInterner assigns dense int32 codes to distinct strings in
// first-seen order. Lookups go through a pointer-identity cache
// first: values decoded from a dictionary- or run-length-encoded page
// share one string header per distinct value, so the common case is
// one map probe on (data pointer, length) with no string hashing. The
// key's unsafe.Pointer is traced by the GC — each cached string's
// backing array stays pinned, so a recycled allocation can never
// alias a dead entry.
type strInterner struct {
	byPtr map[ptrKey]int32
	byVal map[string]int32
	vals  []expr.Value // code → original value
}

type ptrKey struct {
	p unsafe.Pointer
	n int
}

func newStrInterner() *strInterner {
	return &strInterner{byPtr: map[ptrKey]int32{}, byVal: map[string]int32{}}
}

func (in *strInterner) code(v expr.Value) int32 {
	s := v.AsString()
	k := ptrKey{p: unsafe.Pointer(unsafe.StringData(s)), n: len(s)}
	if c, ok := in.byPtr[k]; ok {
		return c
	}
	c, ok := in.byVal[s]
	if !ok {
		c = int32(len(in.vals))
		in.vals = append(in.vals, v)
		in.byVal[s] = c
	}
	in.byPtr[k] = c
	return c
}

// groupCoder codes the plan's eligible string group columns (one
// interner per column — codes are per-column bijections, which is all
// tuple identity needs).
type groupCoder struct {
	positions []int // row positions of the coded group columns
	resultIdx []int // their positions in the aggregator's output rows
	interns   []*strInterner
}

func newGroupCoder(p *starPlan) *groupCoder {
	g := &groupCoder{}
	for _, gi := range p.codedGroup {
		g.positions = append(g.positions, p.groupIdx[gi])
		g.resultIdx = append(g.resultIdx, gi)
		g.interns = append(g.interns, newStrInterner())
	}
	return g
}

// encode replaces the coded columns' string values with Int codes in
// place (NULLs stay NULL and keep grouping with NULLs). The rows are
// the probe's own slab, never page-cache or table memory.
func (g *groupCoder) encode(rows [][]expr.Value) {
	for _, row := range rows {
		for i, pos := range g.positions {
			if v := row[pos]; v.Kind() == expr.KindString {
				row[pos] = expr.Int(int64(g.interns[i].code(v)))
			}
		}
	}
}

// decode restores the original string values on the aggregated result
// rows (group columns occupy the leading positions; only surviving
// groups pay the decode).
func (g *groupCoder) decode(rows [][]expr.Value) {
	for _, row := range rows {
		for i, pos := range g.resultIdx {
			if v := row[pos]; v.Kind() == expr.KindInt {
				row[pos] = g.interns[i].vals[v.AsInt()]
			}
		}
	}
}
