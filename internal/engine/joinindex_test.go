package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"quarry/internal/expr"
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
