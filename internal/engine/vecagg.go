package engine

import (
	"fmt"
	"math/bits"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// The aggregation kernel's vector entry: the OLAP fast path hands
// HashAggregator.AddVectors a batch column by column — a dictionary
// code per row for every group column, a typed vector for every
// aggregate input — and the kernel folds it into the same aggStates
// Add(rows) folds into. A row's state is found from its code tuple
// (codeIndex), so no group value is hashed or compared per row; the
// value-keyed table behind findOrCreate is consulted once per distinct
// tuple, which keeps every grouping rule (NULLs group together, Int 3
// groups with Float 3.0, -0 with +0, a NaN key with nothing) exactly
// where Add has it. Result, Partials and Absorb see no difference.

// GroupVector is one group-by column of a vector batch: a code per row
// and the value each code stands for (NULL is a value like any other).
// Across the calls made on one aggregator a column's Dict may grow,
// but an entry never changes; equal codes mean the identical value.
type GroupVector struct {
	Codes []uint32
	Dict  []expr.Value
}

// flatIndexBits is the widest packed key the codeIndex serves from a
// flat array (256 KiB of int32s); wider keys go through a map.
const flatIndexBits = 16

// codeIndex maps a code tuple to its group state. The tuple's codes
// are packed into one integer key, each column in a bit field sized
// for twice its dictionary; when a dictionary outgrows its field the
// index is laid out again from the tuples it has registered, so the
// cost of growth is amortised like a slice's.
type codeIndex struct {
	width []uint // bits per group column; nil until the first layout
	shift []uint
	wide  bool             // the packed key does not fit 62 bits: nothing is indexed
	flat  []int32          // key → entry + 1, when the key space is small
	table map[uint64]int32 // key → entry, otherwise

	tuples []uint32    // registered tuples, one code per group column each
	states []*aggState // state of each registered tuple

	group []expr.Value // scratch: the values of a tuple met for the first time
}

// fits reports whether every dictionary still fits its bit field.
func (x *codeIndex) fits(groups []GroupVector) bool {
	if x.width == nil {
		return false
	}
	for g := range groups {
		if len(groups[g].Dict) > 1<<x.width[g] {
			return false
		}
	}
	return true
}

// layout sizes the bit fields for the dictionaries as they are now and
// re-registers every known tuple under the new keys.
func (x *codeIndex) layout(groups []GroupVector) {
	x.width = make([]uint, len(groups))
	x.shift = make([]uint, len(groups))
	total := uint(0)
	for g := range groups {
		x.width[g] = uint(bits.Len(uint(len(groups[g].Dict)))) + 1
		x.shift[g] = total
		total += x.width[g]
	}
	x.wide, x.flat, x.table = total > 62, nil, nil
	if x.wide {
		return
	}
	if total <= flatIndexBits {
		x.flat = make([]int32, 1<<total)
	} else {
		x.table = make(map[uint64]int32, len(x.states))
	}
	k := len(groups)
	for e := range x.states {
		var key uint64
		for g, code := range x.tuples[e*k : (e+1)*k] {
			key |= uint64(code) << x.shift[g]
		}
		x.set(key, int32(e))
	}
}

func (x *codeIndex) set(key uint64, entry int32) {
	if x.flat != nil {
		x.flat[key] = entry + 1
	} else {
		x.table[key] = entry
	}
}

// resolve fills sts with the group state of every batch row, creating
// states — in first-seen order, through the value-keyed table — for
// tuples not met before.
func (o *aggregationOp) resolve(n int, groups []GroupVector, sts []*aggState) {
	x := o.byCode
	if !x.fits(groups) {
		x.layout(groups)
	}
	for r := 0; r < n; r++ {
		var key uint64 // the row's code tuple, packed
		if !x.wide {
			for g := range groups {
				key |= uint64(groups[g].Codes[r]) << x.shift[g]
			}
		}
		entry := int32(-1)
		switch {
		case x.flat != nil:
			entry = x.flat[key] - 1
		case x.table != nil:
			if e, ok := x.table[key]; ok {
				entry = e
			}
		}
		if entry >= 0 {
			sts[r] = x.states[entry]
			continue
		}
		// A tuple not met before: its values decide the group, by the
		// rules of the row fold.
		x.group = x.group[:0]
		unmatchable := false
		for g := range groups {
			v := groups[g].Dict[groups[g].Codes[r]]
			if f, isFloat := v.AsFloat(); isFloat && f != f {
				unmatchable = true // a NaN key equals nothing, itself included
			}
			x.group = append(x.group, v)
		}
		sts[r] = o.findOrCreate(x.group)
		if x.wide || unmatchable {
			continue
		}
		for g := range groups {
			x.tuples = append(x.tuples, groups[g].Codes[r])
		}
		x.states = append(x.states, sts[r])
		x.set(key, int32(len(x.states)-1))
	}
}

// AddVectors folds a batch of n rows given column-wise: groups holds
// one GroupVector per group column, measures one vector per aggregate
// (nil for COUNT(*)), every one n rows long. It is Add for callers
// that hold columns rather than rows and folds into the same states,
// so the two may be mixed on one aggregator. Nothing passed in is
// retained: the caller may overwrite the vectors once it returns
// (TestAggregatorDoesNotRetainVectors).
func (a *HashAggregator) AddVectors(n int, groups []GroupVector, measures []*storage.Vector) error {
	o := a.op
	if len(groups) != len(o.gIdx) || len(measures) != len(o.aggs) {
		return fmt.Errorf("engine: vector batch has %d group and %d measure columns, aggregator expects %d and %d",
			len(groups), len(measures), len(o.gIdx), len(o.aggs))
	}
	if err := o.checkSummable(n, measures); err != nil {
		return err
	}
	if o.byCode == nil {
		o.byCode = &codeIndex{}
	}
	if cap(o.batchStates) < n {
		o.batchStates = make([]*aggState, n)
	}
	sts := o.batchStates[:n]
	o.resolve(n, groups, sts)
	for i, spec := range o.aggs {
		m := measures[i]
		if o.aIdx[i] == -1 { // COUNT(*)
			for _, st := range sts {
				st.counts[i]++
			}
			continue
		}
		switch spec.Func {
		case "COUNT":
			for r, st := range sts {
				if !m.IsNull(r) {
					st.counts[i]++
				}
			}
		case "MIN", "MAX":
			foldExtreme(sts, i, m, spec.Func == "MIN")
		default: // SUM, AVG
			if m.Kind == expr.KindInt {
				for r, st := range sts {
					if !m.IsNull(r) {
						st.counts[i]++
						st.sums[i].Add(float64(m.Ints[r]))
						st.intSums[i] += m.Ints[r]
					}
				}
				continue
			}
			for r, st := range sts {
				if !m.IsNull(r) {
					st.counts[i]++
					st.sums[i].Add(m.Floats[r])
					st.sumIsInt[i] = false
				}
			}
		}
	}
	return nil
}

// checkSummable reports the error the row fold would stop at: the
// first row, and in it the first SUM or AVG, whose input is neither
// NULL nor numeric.
func (o *aggregationOp) checkSummable(n int, measures []*storage.Vector) error {
	row, agg := n, -1
	for i, spec := range o.aggs {
		m := measures[i]
		if spec.Func != "SUM" && spec.Func != "AVG" || m.Kind == expr.KindInt || m.Kind == expr.KindFloat {
			continue
		}
		for r := 0; r < row; r++ {
			if !m.IsNull(r) {
				row, agg = r, i
			}
		}
	}
	if agg < 0 {
		return nil
	}
	return fmt.Errorf("aggregation %s over non-numeric value %s", o.aggs[agg].Func, measures[agg].Value(row))
}

// foldExtreme folds one MIN (or MAX) input column into the states'
// running extremes, by the row fold's rule (keepExtreme).
func foldExtreme(sts []*aggState, i int, m *storage.Vector, min bool) {
	for r, st := range sts {
		if m.IsNull(r) {
			continue
		}
		st.counts[i]++
		if min {
			keepExtreme(&st.mins[i], m.Value(r), true)
		} else {
			keepExtreme(&st.maxs[i], m.Value(r), false)
		}
	}
}
