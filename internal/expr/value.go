// Package expr implements the scalar expression language shared by all
// Quarry components: xRQ measure formulas and slicer predicates, xLM
// operation parameters (filter conditions, derived attributes), and the
// ETL execution engine.
//
// The language is a small, SQL-flavoured calculus over typed scalar
// values: identifiers (attribute references), literals, arithmetic,
// comparisons, boolean connectives and a fixed set of builtin
// functions. Expressions are parsed once into an AST (Node) and then
// evaluated against row environments, type-checked against schemas, or
// structurally compared by the design integrators.
package expr

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime kinds a Value can take.
type Kind int

// Value kinds. KindNull is the kind of SQL-style NULL; typed kinds
// follow.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind maps a type name (as used in xLM schemas and the storage
// catalog) to a Kind. It accepts the SQL-ish aliases produced by the
// deployers.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "integer", "bigint", "int64", "long":
		return KindInt, nil
	case "float", "double", "double precision", "decimal", "numeric", "float64":
		return KindFloat, nil
	case "string", "text", "varchar", "char":
		return KindString, nil
	case "bool", "boolean":
		return KindBool, nil
	case "null":
		return KindNull, nil
	default:
		return KindNull, fmt.Errorf("expr: unknown type name %q", s)
	}
}

// Value is a scalar runtime value. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It is only meaningful when
// Kind()==KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the value coerced to float64 and whether the
// coercion was possible (ints and floats coerce; others do not).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// AsString returns the string payload. Only meaningful for
// KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload. Only meaningful for KindBool.
func (v Value) AsBool() bool { return v.b }

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value as a SQL-ish literal.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		// Keep the float-ness visible so printed literals re-parse as
		// floats ("1" would come back as an int).
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// Numbers have one identity and one order, decided here for every
// layer — the evaluator, the engine's kernels, the zone maps. Ints
// compare by value, and an int meets a float only when the two are
// exactly equal: Int 3 meets Float 3.0, but Int 2⁵³+1 does not meet
// Float 2⁵³, whose float64 image it shares. −0 is +0. In `=` and `<`
// (Equal, Compare) a NaN stands in no order with any number; for
// grouping and slicing (Key, Identical, TotalOrder) every NaN is one
// value, after every number.

// Equal is `=` on two values. Numbers compare by value, exactly (1 ==
// 1.0, a NaN equals nothing); NULL equals only NULL.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return v.kind == o.kind
	}
	if v.IsNumeric() && o.IsNumeric() {
		return v.numberOrder(o) == Same
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	}
	return false
}

// Order is how one number stands to another.
type Order uint8

// The four orders of two numbers; Unordered is a NaN on either side.
const (
	Less Order = iota
	Same
	Greater
	Unordered
)

// OrderOf orders two ints, or two floats. With IntFloatOrder it is the
// arithmetic of Equal (Same and nothing else is equal) and Compare
// (Unordered compares as 0, like Same); vectorised comparisons call the
// two too, so that they cannot drift from the evaluator.
func OrderOf[T int64 | float64](a, b T) Order {
	switch {
	case a < b:
		return Less
	case a > b:
		return Greater
	case a == b:
		return Same
	}
	return Unordered
}

// IntFloatOrder orders an int against a float by their exact values.
// Rounding to float64 is monotone, so images that differ order the
// values; equal images make f an integer, which int64 holds exactly but
// at 2⁶³, above every int.
func IntFloatOrder(i int64, f float64) Order {
	if o := OrderOf(float64(i), f); o != Same {
		return o
	}
	if f == 0x1p63 {
		return Less
	}
	return OrderOf(i, int64(f))
}

// Reverse is how b stands to a when a stands to b in o.
func (o Order) Reverse() Order { return [...]Order{Greater, Same, Less, Unordered}[o] }

func (v Value) numberOrder(o Value) Order {
	switch {
	case v.kind == KindInt && o.kind == KindInt:
		return OrderOf(v.i, o.i)
	case v.kind == KindInt:
		return IntFloatOrder(v.i, o.f)
	case o.kind == KindInt:
		return IntFloatOrder(o.i, v.f).Reverse()
	}
	return OrderOf(v.f, o.f)
}

// Compare orders two values: -1, 0, +1. Numerics compare by value,
// exactly, a NaN as 0 with every number; strings lexicographically,
// bools false<true. Comparing NULL or mismatched kinds yields an error.
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, fmt.Errorf("expr: cannot compare NULL")
	}
	if v.IsNumeric() && o.IsNumeric() {
		switch v.numberOrder(o) {
		case Less:
			return -1, nil
		case Greater:
			return 1, nil
		default: // Same, or Unordered: NaN compares as 0
			return 0, nil
		}
	}
	if v.kind != o.kind {
		return 0, fmt.Errorf("expr: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s), nil
	case KindBool:
		switch {
		case v.b == o.b:
			return 0, nil
		case !v.b:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return 0, fmt.Errorf("expr: cannot compare %s values", v.kind)
}

// Key is a value's identity as a comparable Go value: two values are
// Identical exactly when their Keys are ==, so a Key indexes a map of
// groups, slices or join keys.
type Key struct {
	kind Kind   // KindInt for a float that is an int64 exactly
	n    uint64 // an int, a float's bits (the one NaN's for every NaN), a bool
	s    string
}

// Key returns v's identity.
func (v Value) Key() Key {
	switch v.kind {
	case KindInt:
		return Key{kind: KindInt, n: uint64(v.i)}
	case KindFloat:
		if v.f >= -0x1p63 && v.f < 0x1p63 && v.f == math.Trunc(v.f) {
			return Key{kind: KindInt, n: uint64(int64(v.f))}
		}
		return Key{kind: KindFloat, n: math.Float64bits(v.Canonical().f)}
	case KindString:
		return Key{kind: KindString, s: v.s}
	case KindBool:
		if v.b {
			return Key{kind: KindBool, n: 1}
		}
	}
	return Key{kind: v.kind}
}

// Int returns the int64 a numeric key's value is exactly, if any.
func (k Key) Int() (int64, bool) { return int64(k.n), k.kind == KindInt }

// Identical reports whether two values are one value for grouping and
// slicing: Equal, but NULL is identical to NULL and NaN to NaN.
func (v Value) Identical(o Value) bool { return v.Key() == o.Key() }

// Canonical is the representative of v's identity a group keeps: +0
// for −0 and one NaN for every NaN, so that a group's key does not
// depend on which of its rows came first. Any other value is itself.
func (v Value) Canonical() Value {
	switch {
	case v.kind != KindFloat:
	case v.f == 0:
		return Float(0)
	case v.f != v.f:
		return Float(math.NaN())
	}
	return v
}

// TotalOrder places v against o: -1, 0 or +1, and 0 exactly when they
// are Identical. It orders every pair of values: the kinds apart, in
// Kind's order (NULL first, then numbers, strings, bools), numbers by
// value with every NaN after every number, strings and bools as
// Compare does.
func (v Value) TotalOrder(o Value) int {
	if r, q := v.rank(), o.rank(); r != q {
		return cmp.Compare(r, q)
	}
	if !v.IsNumeric() {
		c, _ := v.Compare(o) // NULLs tie
		return c
	}
	if c := v.numberOrder(o); c != Unordered {
		return int(c) - 1 // Less, Same, Greater
	}
	return cmp.Compare(v.nan(), o.nan())
}

// rank is v's kind as TotalOrder sorts the kinds: ints and floats are
// one.
func (v Value) rank() Kind {
	if v.kind == KindFloat {
		return KindInt
	}
	return v.kind
}

func (v Value) nan() int {
	if v.kind == KindFloat && v.f != v.f {
		return 1
	}
	return 0
}

// Hash returns a stable hash of the value, used by hash joins and
// aggregations in the engine and by the shard partition. Identical
// values hash alike: Int(3) and Float(3.0), −0 and +0, every NaN. A
// number hashes through its float64 image, so beyond ±2⁵³ distinct ints
// may share a hash — a collision, not an identity; an image at or
// beyond ±2⁶³ (Int(math.MaxInt64) among them) hashes by its float bits,
// alike on every platform.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	switch v.kind {
	case KindNull:
		mix(0)
	case KindInt, KindFloat:
		f, _ := v.AsFloat()
		if f != f {
			f = math.NaN()
		}
		if f >= -0x1p63 && f < 0x1p63 && f == math.Trunc(f) {
			// Integral value in Key's exact-int range: hash the integer
			// representation so Int(3) and Float(3.0) collide on
			// purpose. Outside that range int64(f) is the platform's
			// choice, so those values hash by their float bits.
			u := uint64(int64(f))
			for i := 0; i < 8; i++ {
				mix(byte(u >> (8 * i)))
			}
		} else {
			u := math.Float64bits(f)
			for i := 0; i < 8; i++ {
				mix(byte(u >> (8 * i)))
			}
		}
	case KindString:
		mix(2)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindBool:
		mix(3)
		if v.b {
			mix(1)
		}
	}
	return h
}
