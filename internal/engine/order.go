package engine

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// The answer's order. Every answer's rows are sorted by their group
// columns, each by expr.Value.TotalOrder — NULL first, numbers by value
// with every NaN after every number, then strings, then bools — and
// rows whose keys tie keep their order: a stable sort of the rows, the
// ETL Sort operator's (sortOp). The answer tail does not compare
// values to get there. It ranks each group column's distinct values
// once, and then sorts the key positions by their tuples of ranks:
//
//   - A coded column (a coder's dictionary, a key vector's) ranks the
//     dictionary entries its keys use, sorted by TotalOrder; entries
//     TotalOrder ties — Int 3 and Float 3.0 in a dictionary kept by
//     representation — share a rank.
//   - An int or float column ranks its distinct values through an
//     unsigned image that orders as TotalOrder does (orderImage).
//   - The ranks and the position are packed into one uint64 when their
//     bits fit, so the positions sort as plain integers; otherwise they
//     are compared column by column, the position last.
//
// Ranks order as the values do and tie exactly where TotalOrder does,
// and the position breaks every tie, so the order is the stable sort's.

// keyRanks holds m keys' ranks a column at a time.
type keyRanks struct {
	m      int
	counts []int    // per column ranked: the ranks it has
	ranks  []uint32 // column j's, a rank per position: ranks[j*m : (j+1)*m]
}

// newKeyRanks readies the ranks of m keys of k columns.
func newKeyRanks(m, k int) keyRanks {
	return keyRanks{m: m, counts: make([]int, 0, k), ranks: make([]uint32, m*k)}
}

// column is column j's ranks.
func (r *keyRanks) column(j int) []uint32 { return r.ranks[j*r.m : (j+1)*r.m : (j+1)*r.m] }

// next is the ranks of the column to rank next, to fill.
func (r *keyRanks) next() []uint32 { return r.column(len(r.counts)) }

// Order returns the cells c holds — every cell, or those Pick picked —
// sorted by their keys, cells whose keys tie in the order c holds them.
func (c Cells) Order() []int32 {
	at := c.at()
	r := newKeyRanks(len(at), len(c.Keys))
	for _, k := range c.Keys {
		r.vector(k, at)
	}
	order := r.order(r.packs())
	for i, p := range order {
		order[i] = at[p]
	}
	return order
}

// order returns the aggregation's groups sorted by their keys, ranked
// from the coders' dictionaries at the groups' codes; a key kept in
// another representation (reps) is identical to its entry, so it ranks
// alike.
func (o *aggregationOp) order() []int32 {
	k := len(o.gIdx)
	r := newKeyRanks(o.groups, k)
	for j := range k {
		codes := r.next()
		for g := range codes {
			codes[g] = o.codes[g*k+j]
		}
		r.coded(o.vec.coders[j].dict, codes)
	}
	return r.order(r.packs())
}

// vector ranks the keys of v at the positions at.
func (r *keyRanks) vector(v *storage.Vector, at []int32) {
	ranks := r.next()
	if v.Coded() {
		null := uint32(len(v.Dict))
		for i, p := range at {
			ranks[i] = null
			if !v.IsNull(int(p)) {
				ranks[i] = v.Codes[p]
			}
		}
		r.coded(v.Dict, ranks)
		return
	}
	image := func(p int32) uint64 {
		if v.Kind == expr.KindInt {
			return uint64(v.Ints[p]) ^ 1<<63
		}
		return orderImage(v.Floats[p])
	}
	vals, nulls := make([]uint64, 0, len(at)), 0
	for _, p := range at {
		if v.IsNull(int(p)) {
			nulls = 1
		} else {
			vals = append(vals, image(p))
		}
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)
	for i, p := range at {
		if !v.IsNull(int(p)) { // a NULL ranks 0, first
			k, _ := slices.BinarySearch(vals, image(p))
			ranks[i] = uint32(nulls + k)
		}
	}
	r.add(nulls + len(vals))
}

// orderImage maps a float to bits that order as TotalOrder orders
// floats: −0 as +0, and every NaN as one, after +Inf.
func orderImage(f float64) uint64 {
	switch {
	case f != f:
		f = math.NaN()
	case f == 0:
		f = 0
	}
	return floatOrderBits(f)
}

// coded ranks codes, in place: each is an entry of dict, or len(dict)
// for NULL. Only the entries a code names are sorted, by TotalOrder, or
// by their bytes alone where they are all strings. Where the dictionary
// is far larger than the codes (an adopted build column's, of which a
// filtered query meets a few), the codes are first renumbered over a
// dictionary of the entries they name.
func (r *keyRanks) coded(dict []expr.Value, codes []uint32) {
	if len(dict) > 8*len(codes)+64 {
		dict = renumber(dict, codes)
	}
	buf := make([]uint32, len(dict)+1+min(len(codes), len(dict)+1))
	rankOf, used := buf[:len(dict)+1], buf[len(dict)+1:len(dict)+1] // rankOf[e] is 1 once a code names e, then e's rank
	strs := true
	for _, e := range codes {
		if rankOf[e] == 0 {
			rankOf[e] = 1
			used = append(used, e)
			strs = strs && int(e) < len(dict) && dict[e].Kind() == expr.KindString
		}
	}
	order := func(a, b uint32) int { return strings.Compare(dict[a].AsString(), dict[b].AsString()) }
	if !strs {
		value := func(e uint32) expr.Value {
			if int(e) == len(dict) {
				return expr.Value{}
			}
			return dict[e]
		}
		order = func(a, b uint32) int { return value(a).TotalOrder(value(b)) }
	}
	slices.SortFunc(used, order)
	n := 0
	for i, e := range used {
		if i == 0 || order(used[i-1], e) != 0 {
			n++
		}
		rankOf[e] = uint32(n - 1)
	}
	for i, e := range codes {
		codes[i] = rankOf[e]
	}
	r.add(n)
}

// renumber returns the entries of dict that codes name, in entry
// order, and renumbers codes over them in place, NULL's code (len(dict))
// becoming the new dictionary's length.
func renumber(dict []expr.Value, codes []uint32) []expr.Value {
	named := slices.Clone(codes)
	slices.Sort(named)
	named = slices.Compact(named)
	if len(named) > 0 && int(named[len(named)-1]) == len(dict) {
		named = named[:len(named)-1]
	}
	for i, e := range codes {
		k, _ := slices.BinarySearch(named, e)
		codes[i] = uint32(k)
	}
	sub := make([]expr.Value, len(named))
	for i, e := range named {
		sub[i] = dict[e]
	}
	return sub
}

// add closes the column next handed out: it has n ranks.
func (r *keyRanks) add(n int) { r.counts = append(r.counts, n) }

// width is the bits a rank below n takes.
func width(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// packs reports whether every position's ranks and the position itself
// fit one uint64.
func (r *keyRanks) packs() bool {
	total := width(r.m)
	for _, n := range r.counts {
		total += width(n)
	}
	return total <= 64
}

// order returns the positions sorted by their rank tuples, ties in
// position order: as packed integers when pack is set (packs must hold),
// compared column by column otherwise.
func (r *keyRanks) order(pack bool) []int32 {
	order := make([]int32, r.m)
	if !pack {
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			for j := range r.counts {
				if c := cmp.Compare(r.column(j)[a], r.column(j)[b]); c != 0 {
					return c
				}
			}
			return cmp.Compare(a, b)
		})
		return order
	}
	keys := make([]uint64, r.m)
	for j, n := range r.counts {
		w := width(n)
		for i, rank := range r.column(j) {
			keys[i] = keys[i]<<w | uint64(rank)
		}
	}
	w := width(r.m)
	for i := range keys {
		keys[i] = keys[i]<<w | uint64(i)
	}
	slices.Sort(keys)
	for i, key := range keys {
		order[i] = int32(key & (1<<w - 1))
	}
	return order
}
