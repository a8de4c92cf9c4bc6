package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// TestJoinIndexKeysSharingADictionary joins on composite keys whose
// build columns present one dictionary — two bool columns (every bool
// vector shares one), a string column named twice — and checks the
// matches against a nested loop: each key column is numbered by its own
// coder, whatever dictionary another key column presented first.
func TestJoinIndexKeysSharingADictionary(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	value := func(c int) expr.Value {
		switch {
		case r.Intn(7) == 0:
			return expr.Null()
		case c < 2:
			return expr.Bool(r.Intn(2) == 0)
		}
		return expr.Str(string(rune('a' + r.Intn(3))))
	}
	rows := func(n int) [][]expr.Value {
		out := make([][]expr.Value, n)
		for i := range out {
			out[i] = []expr.Value{value(0), value(1), value(2)}
		}
		return out
	}
	for _, keys := range [][]int{{0, 1}, {1, 0}, {2, 2}, {0, 2, 1}, {2, 0, 2}} {
		build, probe := rows(40), rows(60)
		j, err := NewHashJoin(keys, keys)
		if err != nil {
			t.Fatal(err)
		}
		j.Build(build[:25])
		j.Build(build[25:])
		var got []string
		for _, row := range j.Probe(nil, probe) {
			got = append(got, fmt.Sprint(row))
		}
		var want []string
		for _, p := range probe {
			for _, b := range build {
				match := true
				for _, k := range keys {
					match = match && !p[k].IsNull() && !b[k].IsNull() && p[k].Equal(b[k])
				}
				if match {
					want = append(want, fmt.Sprint(append(append([]expr.Value{}, p...), b...)))
				}
			}
		}
		if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("keys %v: %d rows joined, nested loop %d\n%s\nwant\n%s", keys, len(got), len(want),
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestHashJoinBuildAfterProbe: the first Probe completes the build side,
// so a later Build fails plainly rather than with an index panic.
func TestHashJoinBuildAfterProbe(t *testing.T) {
	j, _ := NewHashJoin([]int{0}, []int{0})
	j.Build([][]expr.Value{{expr.Int(1)}})
	j.Probe(nil, [][]expr.Value{{expr.Int(1)}})
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "Build after Probe") {
			t.Fatalf("late Build: recovered %v", p)
		}
	}()
	j.Build([][]expr.Value{{expr.Int(2)}})
}

// TestJoinIndexDenseOnlyForNarrowInts pins which representation a key
// column gets: the dense array for int keys that span little more than
// their count, wherever they lie (ints beside 2⁵³ are as exact as any),
// the code map for every other key. olap's TestDimSideIndexKinds holds
// both to the join rule over the same keys.
func TestJoinIndexDenseOnlyForNarrowInts(t *testing.T) {
	ints := func(ks ...int64) []expr.Value {
		out := make([]expr.Value, len(ks))
		for i, k := range ks {
			out[i] = expr.Int(k)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		keys  []expr.Value
		dense bool
	}{
		{"dense int", append(ints(105, 103, 100, 105, 139, 103, 105), expr.Null()), true},
		{"dense int around zero", ints(-7, 0, 3, 3, -7), true},
		{"sparse int", ints(5_000_000, 0, 3, 10_000_000, 3), false},
		{"sparse int with NULL", append(ints(5_000_000, 7), expr.Null()), false},
		{"float with NULL", []expr.Value{expr.Float(2.5), expr.Null()}, false},
		{"int at 2^53", ints(1<<53-1, 1<<53, 1<<53+1, 1<<53-2), true},
		{"int at -2^53", ints(-(1 << 53), -(1<<53 - 1), -(1<<53 + 1)), true},
		{"sparse int at 2^53", ints(1<<53, 1<<53+1, 1<<53+1_000_000), false},
		{"int extremes", ints(math.MinInt64, math.MaxInt64, 0), false},
		{"whole floats", []expr.Value{expr.Float(3), expr.Float(4), expr.Float(5)}, false},
		{"string", []expr.Value{expr.Str("x"), expr.Str("3"), expr.Null(), expr.Str("x"), expr.Str("")}, false},
		{"bool", []expr.Value{expr.Bool(true), expr.Bool(false), expr.Bool(true)}, false},
		{"empty", nil, false},
	} {
		x := NewJoinIndex(0, 1, len(tc.keys))
		if len(tc.keys) > 0 {
			x.Add(len(tc.keys), nil, []*storage.Vector{storage.VectorOf(tc.keys)})
		}
		if err := x.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := x.coders[0].dense; got != tc.dense {
			t.Errorf("%s: dense index %v, want %v", tc.name, got, tc.dense)
		}
	}
}
