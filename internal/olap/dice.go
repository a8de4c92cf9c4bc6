package olap

import (
	"quarry/internal/engine"
	"quarry/internal/expr"
)

// Diamond dicing (engine.Dice): every diced column is grouped by, so a
// row's fate is decided by its group alone. Every answer source dices
// the folded cube's cells in the one answer tail (engine.Cells.Answer,
// over any fold's or merge's cells, a fleet's included); the oracle
// dices its detail rows (diceReference) with the textbook
// recompute-from-scratch loop — two independent implementations of one
// fixpoint, sharing only the slice identity (expr.Value.Key) and the
// sign check (engine.Dice.CheckCarat).

// diceReference computes the same diamond over the detail rows with
// the textbook fixpoint loop: recompute every slice's carat from
// scratch each pass, drop the rows of below-threshold slices, repeat
// until a pass removes nothing. It is the independent implementation
// the tail's dice is verified against, and keeps the survivors in row
// order.
func diceReference(rows [][]expr.Value, d *dicePlan) ([][]expr.Value, error) {
	if d.caratIdx >= 0 {
		for _, row := range rows {
			if err := d.CheckCarat(row[d.caratIdx]); err != nil {
				return nil, err
			}
		}
	}
	cur := rows
	for {
		removed := false
		for i, ci := range d.colIdx {
			carat := map[expr.Key]*engine.FloatSum{}
			for _, row := range cur {
				k := row[ci].Key()
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
				if carat[row[ci].Key()].Round() >= d.Thresholds[i] {
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
