package engine

import (
	"math"
	"math/bits"
)

// FloatSum is an exactly-rounded, order-independent float accumulator:
// it tracks the running sum as a non-overlapping expansion of floats
// (Shewchuk's grow-expansion, the algorithm behind math.fsum) so the
// exact real-number sum of everything added is held without rounding
// error, and Round() produces the nearest float64 to that exact sum
// with ties to even.
//
// Order independence is the property the sharded scatter-gather path
// is built on: naive float64 += folds are associative only up to
// rounding, so partitioning rows across shards and merging per-shard
// naive sums in ANY fixed order is still not bit-identical to the
// single-node fold. An exact sum is a function of the multiset of
// inputs alone, so every partitioning — including the single-node
// "partitioning" — rounds to the same bits. Both OLAP executors and
// the ETL aggregation kernel share this accumulator, which is what
// keeps fast path == star-flow oracle == any shard merge, byte for
// byte.
//
// Non-finite inputs (NaN, ±Inf) are routed to a separate naive
// accumulator: IEEE special values absorb ordering anyway (Inf+x=Inf,
// NaN poisons everything), so a plain += keeps the same propagation
// the old naive fold had while leaving the exact expansion finite.
// Intermediate overflow of the exact sum (|sum| > MaxFloat64)
// likewise degrades to the special accumulator; within the finite
// range the result is exact.
//
// The zero value is an empty sum and ready to use.
type FloatSum struct {
	parts      []float64 // non-overlapping expansion, increasing magnitude
	special    float64   // naive fold of non-finite inputs / overflow
	hasSpecial bool
}

// Add folds one value into the sum.
func (s *FloatSum) Add(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		s.special += x
		s.hasSpecial = true
		return
	}
	if x == 0 {
		// Zeros never move an exact sum, and dropping them keeps the
		// signed-zero behaviour of the naive fold (0.0 + -0.0 = +0.0).
		return
	}
	// Grow-expansion with zero elimination: two-sum x against each
	// existing partial, keeping the low (roundoff) words as the new
	// partials and carrying the high word forward.
	i := 0
	for _, y := range s.parts {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			s.parts[i] = lo
			i++
		}
		x = hi
	}
	if math.IsInf(x, 0) {
		// The exact sum left the representable range; degrade to the
		// naive (infinite) result, like the old += fold would have.
		s.special += x
		s.hasSpecial = true
		s.parts = s.parts[:0]
		return
	}
	if x != 0 {
		s.parts = append(s.parts[:i], x)
	} else {
		s.parts = s.parts[:i]
	}
}

// Merge folds another sum into this one. Because each expansion is an
// exact decomposition of its sum, merging is exact too, and the merged
// Round() equals Round() over the combined input multiset — in any
// merge order.
func (s *FloatSum) Merge(o FloatSum) {
	for _, p := range o.parts {
		s.Add(p)
	}
	if o.hasSpecial {
		s.special += o.special
		s.hasSpecial = true
	}
}

// Round returns the float64 nearest the exact sum, ties to even. The
// tail is the math.fsum finalisation: sum the expansion from the top
// until an add is inexact, then nudge for the case where the remaining
// partials push the discarded half-ulp across the round-half-even
// boundary.
func (s *FloatSum) Round() float64 {
	if s.hasSpecial {
		return s.special
	}
	n := len(s.parts)
	if n == 0 {
		return 0
	}
	n--
	hi := s.parts[n]
	lo := 0.0
	for n > 0 {
		x := hi
		n--
		y := s.parts[n]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	if n > 0 && ((lo < 0 && s.parts[n-1] < 0) || (lo > 0 && s.parts[n-1] > 0)) {
		y := lo * 2.0
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}

// Export returns the sum's wire representation: the expansion parts,
// plus the special accumulator when any non-finite input was seen.
// The parts slice is a copy.
func (s *FloatSum) Export() (parts []float64, special float64, hasSpecial bool) {
	return append([]float64(nil), s.parts...), s.special, s.hasSpecial
}

// imageSum is how a SUM (or AVG) folds the inputs whose float64 image
// is an integer without growing an expansion per row: it adds each such
// image — an int strictly inside ±2⁵³ as it is, past that its rounding,
// a float with no fraction inside ±2⁶³ as it is — into a two's-complement
// 128-bit integer. addTo hands the total to a FloatSum exactly, so
// Round, AVG and the overflow verdict see the sum the expansion would
// have held.
type imageSum struct{ hi, lo uint64 }

// add adds the integer v.
func (s *imageSum) add(v int64) {
	var c uint64
	s.lo, c = bits.Add64(s.lo, uint64(v), 0)
	s.hi += uint64(v>>63) + c // v's sign extension, plus the carry
}

// maxExactInt bounds the integers float64 holds exactly.
const maxExactInt = 1 << 53

// addInt adds the float64 image of the int v.
func (s *imageSum) addInt(v int64) {
	if v >= maxExactInt || v <= -maxExactInt {
		f := float64(v)
		if f == 0x1p63 { // MaxInt64's neighbours round to 2⁶³, one past int64
			s.add(math.MaxInt64)
			s.add(1)
			return
		}
		v = int64(f)
	}
	s.add(v)
}

// addFloat adds f if it is an integer strictly inside ±2⁶³ and reports
// whether it was; a fraction, an infinity or a NaN is left to the
// expansion.
func (s *imageSum) addFloat(f float64) bool {
	if !(f > -0x1p63 && f < 0x1p63) {
		return false
	}
	v := int64(f)
	if float64(v) != f {
		return false
	}
	s.add(v)
	return true
}

// addTo adds the sum to f as at most three parts, each exactly a
// float64 while |hi| < 2⁵³ — one add moves hi by at most one, so that
// holds for any fold of fewer than 2⁵³ rows.
func (s imageSum) addTo(f *FloatSum) {
	f.Add(float64(int64(s.hi)) * 0x1p64)
	f.Add(float64(s.lo>>32) * 0x1p32)
	f.Add(float64(s.lo & (1<<32 - 1)))
}

// ImportFloatSum rebuilds a sum from its wire representation. It only
// trusts the values, not the expansion invariant: parts are re-added
// one by one, so a malformed expansion still yields the exact sum of
// the transmitted values.
func ImportFloatSum(parts []float64, special float64, hasSpecial bool) FloatSum {
	var s FloatSum
	for _, p := range parts {
		s.Add(p)
	}
	if hasSpecial {
		s.special += special
		s.hasSpecial = true
	}
	return s
}
