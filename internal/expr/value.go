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

// Equal reports deep equality between two values. Numeric values of
// different kinds compare by numeric value (1 == 1.0); NULL equals
// only NULL.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return v.kind == o.kind
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return NumberOrder(a, b) == Same
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

// NumberOrder orders two numbers — ints are compared as their float64 —
// and is the arithmetic of both Equal (Same and nothing else is equal)
// and Compare (Unordered compares as 0, like Same). Vectorised
// comparisons call it too, so that they cannot drift from the
// evaluator.
func NumberOrder(a, b float64) Order {
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

// Compare orders two values: -1, 0, +1. Numerics compare numerically,
// strings lexicographically, bools false<true. Comparing NULL or
// mismatched kinds yields an error.
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, fmt.Errorf("expr: cannot compare NULL")
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch NumberOrder(a, b) {
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

// Hash returns a stable hash of the value, used by hash joins and
// aggregations in the engine. Numerically equal ints and floats hash
// identically so join keys of mixed numeric kind still meet.
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
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			// Integral value: hash the integer representation so
			// Int(3) and Float(3.0) collide on purpose.
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
