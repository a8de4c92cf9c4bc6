package expr

import (
	"fmt"
	"math"
	"strings"
)

// builtin describes a builtin scalar function: its arity bounds, its
// evaluator and its result-type rule.
type builtin struct {
	minArgs, maxArgs int
	eval             func(args []Value) (Value, error)
	// typ derives the result kind from argument kinds.
	typ func(args []Kind) (Kind, error)
}

func numericResult(args []Kind) (Kind, error) {
	for _, k := range args {
		if k == KindFloat {
			return KindFloat, nil
		}
		if k != KindInt && k != KindNull {
			return KindNull, fmt.Errorf("expr: numeric function applied to %s", k)
		}
	}
	return KindInt, nil
}

// builtins is the registry of supported scalar functions.
var builtins = map[string]builtin{
	"ABS": {1, 1, func(a []Value) (Value, error) {
		v := a[0]
		if v.IsNull() {
			return Null(), nil
		}
		switch v.Kind() {
		case KindInt:
			if v.AsInt() < 0 {
				return Int(-v.AsInt()), nil
			}
			return v, nil
		case KindFloat:
			f, _ := v.AsFloat()
			return Float(math.Abs(f)), nil
		}
		return Null(), fmt.Errorf("expr: ABS of %s", v.Kind())
	}, numericResult},

	"ROUND": {1, 2, func(a []Value) (Value, error) {
		if a[0].IsNull() {
			return Null(), nil
		}
		f, ok := a[0].AsFloat()
		if !ok {
			return Null(), fmt.Errorf("expr: ROUND of %s", a[0].Kind())
		}
		digits := int64(0)
		if len(a) == 2 {
			if a[1].IsNull() {
				return Null(), nil
			}
			if a[1].Kind() != KindInt {
				return Null(), fmt.Errorf("expr: ROUND digits must be int")
			}
			digits = a[1].AsInt()
		}
		scale := math.Pow(10, float64(digits))
		return Float(math.Round(f*scale) / scale), nil
	}, func(args []Kind) (Kind, error) { return KindFloat, nil }},

	"LENGTH": {1, 1, func(a []Value) (Value, error) {
		if a[0].IsNull() {
			return Null(), nil
		}
		if a[0].Kind() != KindString {
			return Null(), fmt.Errorf("expr: LENGTH of %s", a[0].Kind())
		}
		return Int(int64(len(a[0].AsString()))), nil
	}, func(args []Kind) (Kind, error) { return KindInt, nil }},

	"UPPER": {1, 1, stringFn(strings.ToUpper), stringType},
	"LOWER": {1, 1, stringFn(strings.ToLower), stringType},

	"SUBSTR": {2, 3, func(a []Value) (Value, error) {
		if a[0].IsNull() || a[1].IsNull() {
			return Null(), nil
		}
		if a[0].Kind() != KindString || a[1].Kind() != KindInt {
			return Null(), fmt.Errorf("expr: SUBSTR(string, int[, int])")
		}
		s := a[0].AsString()
		start := int(a[1].AsInt()) - 1 // SQL 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(a) == 3 {
			if a[2].IsNull() {
				return Null(), nil
			}
			if a[2].Kind() != KindInt {
				return Null(), fmt.Errorf("expr: SUBSTR length must be int")
			}
			if n := int(a[2].AsInt()); start+n < end {
				end = start + n
			}
		}
		if end < start {
			end = start
		}
		return Str(s[start:end]), nil
	}, stringType},

	"CONCAT": {1, 16, func(a []Value) (Value, error) {
		var b strings.Builder
		for _, v := range a {
			if v.IsNull() {
				return Null(), nil
			}
			switch v.Kind() {
			case KindString:
				b.WriteString(v.AsString())
			default:
				// Render non-strings without quotes.
				if v.Kind() == KindInt || v.Kind() == KindFloat || v.Kind() == KindBool {
					s := v.String()
					b.WriteString(strings.Trim(s, "'"))
				} else {
					return Null(), fmt.Errorf("expr: CONCAT of %s", v.Kind())
				}
			}
		}
		return Str(b.String()), nil
	}, stringType},

	"COALESCE": {1, 16, func(a []Value) (Value, error) {
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	}, func(args []Kind) (Kind, error) {
		for _, k := range args {
			if k != KindNull {
				return k, nil
			}
		}
		return KindNull, nil
	}},

	"MIN2": {2, 2, extremum(-1), numericResult},
	"MAX2": {2, 2, extremum(1), numericResult},
}

func stringFn(f func(string) string) func([]Value) (Value, error) {
	return func(a []Value) (Value, error) {
		if a[0].IsNull() {
			return Null(), nil
		}
		if a[0].Kind() != KindString {
			return Null(), fmt.Errorf("expr: string function applied to %s", a[0].Kind())
		}
		return Str(f(a[0].AsString())), nil
	}
}

func stringType(args []Kind) (Kind, error) { return KindString, nil }

func extremum(sign int) func([]Value) (Value, error) {
	return func(a []Value) (Value, error) {
		if a[0].IsNull() || a[1].IsNull() {
			return Null(), nil
		}
		c, err := a[0].Compare(a[1])
		if err != nil {
			return Null(), err
		}
		if c*sign > 0 {
			return a[0], nil
		}
		return a[1], nil
	}
}
