package olap

import (
	"fmt"
	"math"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/xlm"
)

// Diamond dicing (Webb, Kaser, Lemire: "Diamond Dicing"; and "Pruning
// Attribute Values From Data Cubes with Diamond Dicing"): given
// per-dimension carat thresholds k_d, the diamond is the maximal
// subcube in which every remaining attribute value (slice) of every
// diced dimension has carat (COUNT of rows, or SUM of a non-negative
// measure) at least k_d. It is computed by iteratively pruning slices
// whose carat falls below threshold until a fixpoint: with a monotone
// carat (pruning rows can only lower other slices' carats) the
// fixpoint is unique and independent of pruning order. A carat is the
// exact sum (engine.FloatSum) of its rows' contributions, rounded once,
// so the diamond is a function of the cube, not of its row order.
//
// Every diced column is grouped by, so a row's fate is decided by its
// group alone. The fast path dices the folded cube's cells (diceCells,
// over engine.Cells: any fold's cells, not one kernel's) with a
// worklist and finalises only the live cells (engine.FinalizeCells);
// the oracle dices its detail rows (diceReference) with the textbook
// recompute-from-scratch loop — two independent implementations of one
// fixpoint.

// sliceID names the slice a value belongs to (caratKey).
type sliceID struct {
	kind expr.Kind // KindFloat for every number
	bits uint64    // a number's float image
	s    string
	b    bool
}

// caratKey names the slice a value belongs to. Numbers are keyed by
// their float image with −0 read as +0: the group-by's identity
// (expr.Value.Equal), so no group spans two slices.
func caratKey(v expr.Value) sliceID {
	if f, ok := v.AsFloat(); ok {
		return sliceID{kind: expr.KindFloat, bits: math.Float64bits(f + 0)}
	}
	return sliceID{kind: v.Kind(), s: v.AsString(), b: v.AsBool()}
}

// negativeCarat is the error of a SUM carat over a column holding a
// negative value or NaN: pruning a row could raise such a carat, so
// the fixpoint would depend on the pruning order.
func negativeCarat(d *dicePlan) error {
	return fmt.Errorf("olap: dice SUM carat over %q requires non-negative values", d.caratCol)
}

// badCarat reports whether v is a number below zero, or NaN.
func badCarat(v expr.Value) bool {
	f, ok := v.AsFloat()
	return ok && !(f >= 0)
}

// caratAggs is the plan's aggregates followed by the hidden ones the
// dice reads its cells' carats from: COUNT(*) for a COUNT carat; for a
// SUM carat AVG of the column, whose state holds the exact sum (NaN
// when a value is NaN) and never fails finalisation, and MIN, negative
// exactly when some value is (NaN when every value is).
func caratAggs(p *starPlan) ([]xlm.AggSpec, []int) {
	aggs := append([]xlm.AggSpec(nil), p.aggs...)
	idx := append([]int(nil), p.aggIdx...)
	col := p.dice.caratCol
	if col == "" {
		return append(aggs, xlm.AggSpec{Func: "COUNT"}), append(idx, -1)
	}
	i := p.index[col]
	return append(aggs, xlm.AggSpec{Func: "AVG", Col: col}, xlm.AggSpec{Func: "MIN", Col: col}), append(idx, i, i)
}

// diceCells cuts the diamond d out of the folded cube: the cells of a
// fold over caratAggs, and a slice is the cells that share a diced
// column's value. It returns the surviving cells, in cell order, to
// pick for engine.FinalizeCells. A cell's carat is read from the hidden
// aggregates' state columns and its slices from the key vectors: a
// coded key column names a slice once per dictionary entry, not per
// cell (Partials codes each distinct value once). A
// worklist re-examines only the slices that lost a cell since their
// last check, each time summing its live cells' exact carats afresh,
// never by subtraction.
func diceCells(cells engine.Cells, d *dicePlan) ([]int32, error) {
	type slice struct {
		dim          int // position in d.cols
		cells        []int
		dead, queued bool
	}
	// The hidden aggregates' states are the last: a COUNT carat is the
	// hidden COUNT(*); a SUM carat is the exact sum the hidden AVG keeps,
	// and the hidden MIN after it is negative or NaN when a value is.
	nd, last := len(d.cols), &cells.States[len(cells.States)-1]
	var carats []engine.FloatSum
	if d.caratCol == "" {
		carats = make([]engine.FloatSum, cells.N)
		for c, n := range last.Counts {
			carats[c].Add(float64(n))
		}
	} else {
		carats = cells.States[len(cells.States)-2].Sums
	}
	var all []slice
	var queue []int               // every slice starts due for a check
	of := make([]int, cells.N*nd) // cell c's slice in diced column i is all[of[c*nd+i]]
	byKey := make([]map[sliceID]int, nd)
	for i := range byKey {
		byKey[i] = map[sliceID]int{}
	}
	named := func(i int, v expr.Value) int {
		k := caratKey(v)
		s, ok := byKey[i][k]
		if !ok {
			s = len(all)
			byKey[i][k] = s
			all = append(all, slice{dim: i, queued: true})
			queue = append(queue, s)
		}
		return s
	}
	entries := make([][]int, nd) // per coded diced column: each dictionary entry's slice + 1, 0 until named
	for i, g := range d.groupPos {
		if k := cells.Keys[g]; k.Coded() {
			entries[i] = make([]int, len(k.Dict))
		}
	}
	for c := range cells.N {
		if d.caratCol != "" && (badCarat(last.Mins[c]) || math.IsNaN(carats[c].Round())) {
			return nil, negativeCarat(d)
		}
		for i, g := range d.groupPos {
			var s int
			switch k := cells.Keys[g]; {
			case entries[i] != nil && !k.IsNull(c):
				e := &entries[i][k.Codes[c]]
				if *e == 0 {
					*e = named(i, k.Dict[k.Codes[c]]) + 1
				}
				s = *e - 1
			default:
				s = named(i, k.Value(c))
			}
			all[s].cells = append(all[s].cells, c)
			of[c*nd+i] = s
		}
	}
	live := make([]bool, cells.N)
	for c := range live {
		live[c] = true
	}
	for len(queue) > 0 {
		s := &all[queue[0]]
		queue = queue[1:]
		s.queued = false
		var carat engine.FloatSum
		for _, c := range s.cells {
			if live[c] {
				carat.Merge(carats[c])
			}
		}
		if carat.Round() >= d.thresholds[s.dim] {
			continue
		}
		s.dead = true
		for _, c := range s.cells {
			if !live[c] {
				continue
			}
			live[c] = false
			for _, o := range of[c*nd : (c+1)*nd] {
				if !all[o].dead && !all[o].queued {
					all[o].queued = true
					queue = append(queue, o)
				}
			}
		}
	}
	var sel []int32
	for c, ok := range live {
		if ok {
			sel = append(sel, int32(c))
		}
	}
	return sel, nil
}

// diceReference computes the same diamond over the detail rows with
// the textbook fixpoint loop: recompute every slice's carat from
// scratch each pass, drop the rows of below-threshold slices, repeat
// until a pass removes nothing. It is the independent implementation
// diceCells is verified against, and keeps the survivors in row order.
func diceReference(rows [][]expr.Value, d *dicePlan) ([][]expr.Value, error) {
	if d.caratIdx >= 0 {
		for _, row := range rows {
			if badCarat(row[d.caratIdx]) {
				return nil, negativeCarat(d)
			}
		}
	}
	cur := rows
	for {
		removed := false
		for i, ci := range d.colIdx {
			carat := map[sliceID]*engine.FloatSum{}
			for _, row := range cur {
				k := caratKey(row[ci])
				s := carat[k]
				if s == nil {
					s = &engine.FloatSum{}
					carat[k] = s
				}
				if d.caratIdx < 0 {
					s.Add(1)
				} else if f, ok := row[d.caratIdx].AsFloat(); ok {
					s.Add(f)
				}
			}
			var kept [][]expr.Value
			for _, row := range cur {
				if carat[caratKey(row[ci])].Round() >= d.thresholds[i] {
					kept = append(kept, row)
				}
			}
			if len(kept) != len(cur) {
				removed = true
				cur = kept
			}
		}
		if !removed {
			return cur, nil
		}
	}
}
