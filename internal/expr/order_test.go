package expr

import (
	"math"
	"math/big"
	"testing"
)

// TestHashPinned pins Value.Hash for non-NaN values, ints across ±2⁵³
// included, to the hashes data is partitioned over shards by: a moved
// hash would move rows to another shard. Values whose float64 image
// lies outside int64 are left out, as their hash rests on a conversion
// Go leaves to the platform.
func TestHashPinned(t *testing.T) {
	for _, c := range []struct {
		v    Value
		hash uint64
	}{
		{Null(), 0xaf63bd4c8601b7df},
		{Int(0), 0xa8c7f832281a39c5},
		{Int(-1), 0x8cf51a8bfca3883d},
		{Int(3), 0xc7c2bf3b330983e6},
		{Float(3), 0xc7c2bf3b330983e6},
		{Float(0), 0xa8c7f832281a39c5},
		{Float(math.Copysign(0, -1)), 0xa8c7f832281a39c5},
		{Float(2.5), 0xa8ba2032280e4061},
		{Float(0.1), 0x4fa09cc0eec310c4},
		{Int(1<<53 - 1), 0x8c88bb8bfc47c7f0},
		{Int(1 << 53), 0xa85b383227bdd4a5},
		{Int(1<<53 + 1), 0xa85b383227bdd4a5},
		{Int(1<<53 + 2), 0xe650c6443d9c68e7},
		{Int(-(1 << 53)), 0xaae7a93229e819e8},
		{Int(-(1<<53 + 1)), 0xaae7a93229e819e8},
		{Float(1 << 53), 0xa85b383227bdd4a5},
		{Int(math.MinInt64), 0xa8c7783228196045},
		{Float(-0x1p63), 0xa8c7783228196045},
		{Float(math.Inf(1)), 0xaab1293229b9b0f8},
		{Float(math.Inf(-1)), 0xaab1a93229ba8a78},
		// Images at or beyond ±2⁶³ hash by their float bits (FNV-1a of
		// the bits' little-endian bytes), not through int64(f).
		{Int(math.MaxInt64), 0xaae7f53229e89b0c},
		{Float(0x1p63), 0xaae7f53229e89b0c},
		{Float(1e300), 0x8b8f4de62cb5842b},
		{Float(-1e300), 0x8b8ecde62cb4aaab},
		{Str(""), 0xaf63bf4c8601bb45},
		{Str("SPAIN"), 0x1b7e9a01a41c778e},
		{Bool(false), 0xaf63be4c8601b992},
		{Bool(true), 0x835ef07b4ee54c9},
	} {
		if got := c.v.Hash(); got != c.hash {
			t.Errorf("%s (%s) hashes %#x, want %#x", c.v, c.v.Kind(), got, c.hash)
		}
	}
}

// fuzzValue decodes a value of any kind from the fuzzer's numbers:
// NULL, any int, any float (NaNs of every payload and ±0 among them),
// ints and their float images around ±2⁵³ and at the ends of int64,
// strings and bools.
func fuzzValue(kind uint8, bits uint64) Value {
	near := func() int64 { // within 128 of 0, ±2⁵³ or an end of int64
		base := [...]int64{0, 1 << 53, -(1 << 53), math.MaxInt64 - 127, math.MinInt64 + 128}[(bits>>8)%5]
		return base + int64(int8(bits))
	}
	switch kind % 7 {
	case 0:
		return Null()
	case 1:
		return Int(int64(bits))
	case 2:
		return Float(math.Float64frombits(bits))
	case 3:
		return Int(near())
	case 4:
		return Float(float64(near()))
	case 5:
		return Str(string(rune('a' + bits%3)))
	}
	return Bool(bits&1 == 1)
}

// exact is a number's exact value through math/big, nil for NaN.
func exact(v Value) *big.Float {
	if v.Kind() == KindInt {
		return new(big.Float).SetInt64(v.AsInt())
	}
	if f, _ := v.AsFloat(); f == f {
		return big.NewFloat(f)
	}
	return nil
}

// FuzzValueOrder checks the one identity and order of values on three
// fuzzed values: Identical is an equivalence, and Key its comparable
// form; identical values hash alike and have one canonical form;
// TotalOrder is a total order that ties exactly the identical values
// and orders numbers by their exact values (math/big) with every NaN
// last; Compare and Equal agree with it wherever they order.
func FuzzValueOrder(f *testing.F) {
	const two53 = uint64(1) << 53
	nan, negNaN := math.Float64bits(math.NaN()), uint64(0xfff8000000000001)
	for _, seed := range [][6]uint64{
		{3, 1, 4, 1, 3, 0},                         // 2⁵³+1, its image 2⁵³, 2⁵³
		{3, 1<<8 | 0xff, 4, 1<<8 | 0xff, 1, two53}, // 2⁵³−1 and its float, 2⁵³
		{2, nan, 2, negNaN, 2, 0x7ff0000000000001}, // NaNs of three payloads
		{2, 1 << 63, 2, 0, 1, 0},                   // −0, +0, Int 0
		{1, 1 << 63, 2, math.Float64bits(-0x1p63), 3, 4<<8 | 0x80},
		{3, 3<<8 | 0x7f, 4, 3<<8 | 0x7f, 2, math.Float64bits(0x1p63)}, // MaxInt64, 2⁶³
		{1, 3, 2, math.Float64bits(3), 2, math.Float64bits(2.5)},
		{0, 0, 5, 1, 6, 1}, {5, 0, 5, 2, 6, 0}, {2, math.Float64bits(math.Inf(1)), 1, 1<<63 - 1, 2, nan},
	} {
		f.Add(uint8(seed[0]), seed[1], uint8(seed[2]), seed[3], uint8(seed[4]), seed[5])
	}
	f.Fuzz(func(t *testing.T, ka uint8, a uint64, kb uint8, b uint64, kc uint8, c uint64) {
		vs := [3]Value{fuzzValue(ka, a), fuzzValue(kb, b), fuzzValue(kc, c)}
		for _, x := range vs {
			if !x.Identical(x) || x.TotalOrder(x) != 0 {
				t.Fatalf("%s is not itself", x)
			}
			if cx := x.Canonical(); !cx.Identical(x) || cx.Kind() != x.Kind() {
				t.Fatalf("%s canonically is %s", x, cx)
			}
		}
		for i, x := range vs {
			for _, y := range vs[i+1:] {
				same, o := x.Identical(y), x.TotalOrder(y)
				switch {
				case same != y.Identical(x) || o != -y.TotalOrder(x):
					t.Fatalf("%s against %s: identity or order not symmetric", x, y)
				case same != (o == 0) || same != (x.Key() == y.Key()):
					t.Fatalf("%s against %s: identical %v, order %d, keys equal %v", x, y, same, o, x.Key() == y.Key())
				case same && x.Hash() != y.Hash():
					t.Fatalf("identical %s and %s hash %#x and %#x", x, y, x.Hash(), y.Hash())
				case same && x.Kind() == KindFloat && y.Kind() == KindFloat &&
					math.Float64bits(x.Canonical().f) != math.Float64bits(y.Canonical().f):
					t.Fatalf("identical %s and %s have two canonical forms", x, y)
				}
				if x.IsNumeric() && y.IsNumeric() {
					ex, ey := exact(x), exact(y)
					want := 0
					switch {
					case ex != nil && ey != nil:
						want = ex.Cmp(ey)
					case ex != nil:
						want = -1
					case ey != nil:
						want = 1
					}
					if o != want {
						t.Fatalf("%s against %s: order %d, exact values %d", x, y, o, want)
					}
				}
				c, err := x.Compare(y)
				if ordered := err == nil && x.nan()+y.nan() == 0; ordered && (c != o || x.Equal(y) != same) {
					t.Fatalf("%s against %s: Compare %d, Equal %v; order %d, identical %v", x, y, c, x.Equal(y), o, same)
				}
			}
		}
		// Transitivity, in every order of the three.
		for _, p := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			x, y, z := vs[p[0]], vs[p[1]], vs[p[2]]
			if x.Identical(y) && y.Identical(z) && !x.Identical(z) {
				t.Fatalf("%s ~ %s ~ %s, but not %s ~ %s", x, y, z, x, z)
			}
			if x.TotalOrder(y) <= 0 && y.TotalOrder(z) <= 0 && x.TotalOrder(z) > 0 {
				t.Fatalf("%s ≤ %s ≤ %s, but %s > %s", x, y, z, x, z)
			}
		}
	})
}
