package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// TestQuickFinalizeCellsMatchesRefold: dirty keys (NULL, NaN, −0 and
// +0, Int 3 and Float 3.0, strings) folded in random batches that mix
// Add and AddVectors, then a random selection of the Partials.
// FinalizeCells of the selection must equal a fresh fold of only the
// selected groups' rows, in the same order, and so must Absorbing the
// selected cells into a fresh aggregator. Which row belongs to which
// group, and the groups' first-seen order, come from a linear scan by
// the grouping rule, not from the kernel.
func TestQuickFinalizeCellsMatchesRefold(t *testing.T) {
	pool := []expr.Value{
		expr.Null(), expr.Float(math.NaN()), expr.Float(math.Copysign(0, -1)), expr.Float(0), expr.Int(0),
		expr.Int(3), expr.Float(3), expr.Str("3"), expr.Str("a"), expr.Str(""), expr.Float(2.5), expr.Int(-7),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		groupCols := r.Intn(3)
		aggs, aggIdx, kinds := allAggs(groupCols)
		groupIdx := make([]int, groupCols)
		for g := range groupIdx {
			groupIdx[g] = g
		}
		fresh := func() *HashAggregator {
			a, err := NewHashAggregator(groupIdx, aggs, aggIdx)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		// Rows and, by a linear scan, each row's group in first-seen order.
		var firsts [][]expr.Value
		draw := func(n int) (rows [][]expr.Value, groupOf []int) {
			for range n {
				row := make([]expr.Value, groupCols)
				for g := range row {
					row[g] = pool[r.Intn(1+r.Intn(len(pool)))]
				}
				group := len(firsts)
			scan:
				for j, key := range firsts {
					for g := range key {
						if !(key[g].IsNull() && row[g].IsNull() || key[g].Equal(row[g])) {
							continue scan
						}
					}
					group = j
					break
				}
				if group == len(firsts) {
					firsts = append(firsts, row)
				}
				rows, groupOf = append(rows, append(row, measuresOf(r)...)), append(groupOf, group)
			}
			return rows, groupOf
		}
		a := fresh()
		fold := func(rows [][]expr.Value) {
			for at := 0; at < len(rows); {
				batch := rows[at:min(at+1+r.Intn(20), len(rows))]
				at += len(batch)
				if r.Intn(2) == 0 {
					if err := a.Add(batch); err != nil {
						t.Fatal(err)
					}
					continue
				}
				groups := make([]Column, groupCols)
				for g := range groups {
					groups[g] = Column{Vec: storage.VectorOf(valuesAt(batch, g))}
				}
				measures := make([]Column, len(aggs))
				for i, c := range aggIdx {
					if c >= 0 {
						measures[i] = Column{Vec: columnOf(batch, c, kinds[c])}
					}
				}
				if err := a.AddVectors(len(batch), groups, measures); err != nil {
					t.Fatal(err)
				}
			}
		}
		rows, groupOf := draw(r.Intn(80))
		fold(rows)
		if n := a.Partials().N; n != len(firsts) {
			t.Errorf("seed %d: %d partials, the scan finds %d groups", seed, n, len(firsts))
			return false
		}
		keep := make([]bool, len(firsts))
		var sel []int32
		for g := range keep {
			if keep[g] = r.Intn(3) > 0; keep[g] {
				sel = append(sel, int32(g))
			}
		}
		var refolded [][]expr.Value
		for i, row := range rows {
			if keep[groupOf[i]] {
				refolded = append(refolded, row)
			}
		}
		refold := fresh()
		if err := refold.Add(refolded); err != nil {
			t.Fatal(err)
		}
		cells := a.Partials()
		finalised, err := FinalizeCells(groupCols, aggs, cells, sel)
		if err != nil {
			t.Fatal(err)
		}
		absorbed := fresh()
		if err := absorbed.Absorb(cells.Select(sel)); err != nil {
			t.Fatal(err)
		}
		want := refold.Result()
		for name, got := range map[string][][]expr.Value{"FinalizeCells": finalised, "Absorb": absorbed.Result()} {
			if msg := sameRows(got, want); msg != "" {
				t.Errorf("seed %d, %d group columns: %s of the selection: %s", seed, groupCols, name, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sameRows describes the first difference of two result sets, bit for
// bit, or returns "".
func sameRows(got, want [][]expr.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !identical(got[i][j], want[i][j]) {
				return fmt.Sprintf("row %d column %d is %s, want %s", i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}
