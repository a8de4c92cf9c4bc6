package engine

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/xlm"
)

// bigRound computes the correctly-rounded (nearest, ties to even)
// float64 of the exact sum of xs, via arbitrary-precision arithmetic.
func bigRound(xs []float64) float64 {
	sum := new(big.Float).SetPrec(8192).SetMode(big.ToNearestEven)
	for _, x := range xs {
		sum.Add(sum, new(big.Float).SetPrec(8192).SetFloat64(x))
	}
	f, _ := sum.Float64()
	return f
}

func randFloats(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Wildly mixed magnitudes and signs so naive summation would
		// visibly depend on order.
		xs[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(30)-15))
	}
	return xs
}

// TestFloatSumExact checks Round against the big.Float oracle.
func TestFloatSumExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := randFloats(r, 1+r.Intn(200))
		var s FloatSum
		for _, x := range xs {
			s.Add(x)
		}
		if got, want := s.Round(), bigRound(xs); got != want {
			t.Fatalf("trial %d: Round()=%g want %g (exact)", trial, got, want)
		}
	}
	// Classic fsum stress cases.
	cases := [][]float64{
		{1e100, 1, -1e100},
		{1, 1e-16, 1e-16, 1e-16},
		{math.MaxFloat64 / 2, math.MaxFloat64 / 2, -math.MaxFloat64 / 4},
		{0.1, 0.2, 0.3, -0.6},
		{1e16, 1, 1e16, 1, -2e16},
	}
	for _, xs := range cases {
		var s FloatSum
		for _, x := range xs {
			s.Add(x)
		}
		if got, want := s.Round(), bigRound(xs); got != want {
			t.Fatalf("case %v: Round()=%g want %g", xs, got, want)
		}
	}
}

// TestFloatSumOrderAndPartitionIndependent is the property the shard
// merge relies on: any permutation, any partitioning into sub-sums
// merged in any order, same bits.
func TestFloatSumOrderAndPartitionIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		xs := randFloats(r, 2+r.Intn(150))
		var base FloatSum
		for _, x := range xs {
			base.Add(x)
		}
		want := base.Round()

		// Random permutation.
		perm := append([]float64(nil), xs...)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var ps FloatSum
		for _, x := range perm {
			ps.Add(x)
		}
		if got := ps.Round(); got != want {
			t.Fatalf("trial %d: permutation changed bits: %x vs %x", trial, math.Float64bits(got), math.Float64bits(want))
		}

		// Random partitioning into 1..8 shards, merged in random order.
		n := 1 + r.Intn(8)
		shards := make([]FloatSum, n)
		for _, x := range xs {
			shards[r.Intn(n)].Add(x)
		}
		order := r.Perm(n)
		var merged FloatSum
		for _, i := range order {
			// Round-trip each shard through the wire representation.
			parts, special, has := shards[i].Export()
			imp := ImportFloatSum(parts, special, has)
			merged.Merge(imp)
		}
		if got := merged.Round(); got != want {
			t.Fatalf("trial %d: %d-way partition merge changed bits: %x vs %x", trial, n, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestFloatSumSpecials checks NaN/Inf propagate like a naive fold.
func TestFloatSumSpecials(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, inf, 2}, inf},
		{[]float64{-inf, 5}, -inf},
		{[]float64{inf, -inf}, math.NaN()},
		{[]float64{math.NaN(), 1}, math.NaN()},
	}
	for _, c := range cases {
		var s FloatSum
		for _, x := range c.xs {
			s.Add(x)
		}
		got := s.Round()
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Fatalf("%v: got %g want NaN", c.xs, got)
			}
			continue
		}
		if got != c.want {
			t.Fatalf("%v: got %g want %g", c.xs, got, c.want)
		}
		// Specials must survive the wire too.
		parts, special, has := s.Export()
		if rt := ImportFloatSum(parts, special, has); rt.Round() != c.want {
			t.Fatalf("%v: wire round-trip got %g want %g", c.xs, rt.Round(), c.want)
		}
	}
}

// TestAggregatorPartialsAbsorb checks the full kernel-level merge: rows
// partitioned across N aggregators, partials absorbed in shard order,
// finalised + sorted result identical to one aggregator over all rows.
func TestAggregatorPartialsAbsorb(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	aggs := []xlm.AggSpec{
		{Func: "COUNT", Col: "", Out: "cnt"},
		{Func: "SUM", Col: "f", Out: "fsum"},
		{Func: "AVG", Col: "f", Out: "favg"},
		{Func: "SUM", Col: "i", Out: "isum"},
		{Func: "MIN", Col: "s", Out: "smin"},
		{Func: "MAX", Col: "s", Out: "smax"},
	}
	aggIdx := []int{-1, 1, 1, 2, 3, 3}
	groupIdx := []int{0}
	mkAgg := func() *HashAggregator {
		a, err := NewHashAggregator(groupIdx, aggs, aggIdx)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for trial := 0; trial < 30; trial++ {
		nRows := 50 + r.Intn(300)
		rows := make([][]expr.Value, nRows)
		for i := range rows {
			row := []expr.Value{
				expr.Int(int64(r.Intn(7))), // group key
				expr.Float((r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(20)-10))),
				expr.Int(int64(r.Intn(1000) - 500)),
				expr.Str(string(rune('a' + r.Intn(26)))),
			}
			if r.Intn(10) == 0 {
				row[1] = expr.Null()
			}
			rows[i] = row
		}

		single := mkAgg()
		if err := single.Add(rows); err != nil {
			t.Fatal(err)
		}
		want := SortRowsBy(single.Result(), []int{0})

		n := 1 + r.Intn(8)
		shards := make([]*HashAggregator, n)
		for i := range shards {
			shards[i] = mkAgg()
		}
		for _, row := range rows {
			si := int(row[0].Hash() % uint64(n))
			if err := shards[si].Add([][]expr.Value{row}); err != nil {
				t.Fatal(err)
			}
		}
		merged := mkAgg()
		for _, sh := range shards {
			if err := merged.Absorb(sh.Partials()); err != nil {
				t.Fatal(err)
			}
		}
		got := SortRowsBy(merged.Result(), []int{0})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d merged groups, want %d", trial, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				wv, gv := want[i][j], got[i][j]
				if wv.IsNull() != gv.IsNull() {
					t.Fatalf("trial %d row %d col %d: null mismatch %s vs %s", trial, i, j, gv, wv)
				}
				if wv.IsNull() {
					continue
				}
				if wf, ok := wv.AsFloat(); ok {
					gf, _ := gv.AsFloat()
					if math.Float64bits(wf) != math.Float64bits(gf) || wv.Kind() != gv.Kind() {
						t.Fatalf("trial %d row %d col %d: %s (bits %x) != %s (bits %x)", trial, i, j, gv, math.Float64bits(gf), wv, math.Float64bits(wf))
					}
					continue
				}
				if !wv.Equal(gv) {
					t.Fatalf("trial %d row %d col %d: %s != %s", trial, i, j, gv, wv)
				}
			}
		}
	}
}

// TestAggregatorDoesNotRetainRows holds Add to its contract: it copies
// the values it keeps (group keys, MIN/MAX) and never the row slice, so
// a caller may overwrite a batch's rows once Add returns. The OLAP fast
// path relies on it: its probe refills one slab for every batch.
func TestAggregatorDoesNotRetainRows(t *testing.T) {
	aggs := []xlm.AggSpec{
		{Func: "COUNT", Out: "n"}, {Func: "SUM", Col: "f", Out: "s"},
		{Func: "MIN", Col: "s", Out: "lo"}, {Func: "MAX", Col: "s", Out: "hi"},
	}
	batches := [][][]expr.Value{
		{{expr.Str("g1"), expr.Float(1.5), expr.Str("m")}, {expr.Str("g2"), expr.Float(2), expr.Str("a")}},
		{{expr.Str("g1"), expr.Float(4), expr.Str("z")}, {expr.Null(), expr.Float(8), expr.Str("k")}},
	}
	run := func(reuse bool) [][]expr.Value {
		a, err := NewHashAggregator([]int{0}, aggs, []int{-1, 1, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		slab := [][]expr.Value{make([]expr.Value, 3), make([]expr.Value, 3)}
		for _, batch := range batches {
			rows := batch
			if reuse {
				for i, row := range batch {
					copy(slab[i], row)
				}
				rows = slab
			}
			if err := a.Add(rows); err != nil {
				t.Fatal(err)
			}
		}
		for _, row := range slab {
			for i := range row {
				row[i] = expr.Str("overwritten")
			}
		}
		return a.Result()
	}
	want, got := run(false), run(true)
	for i := range want {
		for j := range want[i] {
			if !want[i][j].Identical(got[i][j]) || want[i][j].Kind() != got[i][j].Kind() {
				t.Fatalf("row %d col %d: %s over a reused slab, %s over fresh rows", i, j, got[i][j], want[i][j])
			}
		}
	}
}
