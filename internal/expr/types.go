package expr

import "fmt"

// Schema resolves identifier names to their declared kinds for static
// type checking. The boolean reports whether the name is declared.
type Schema func(name string) (Kind, bool)

// Infer type-checks the expression against the schema and returns the
// static result kind. NULL literals type as KindNull, which unifies
// with everything.
func Infer(n Node, sch Schema) (Kind, error) {
	switch x := n.(type) {
	case *Ident:
		k, ok := sch(x.Name)
		if !ok {
			return KindNull, fmt.Errorf("expr: undeclared identifier %q", x.Name)
		}
		return k, nil
	case *Literal:
		return x.Val.Kind(), nil
	case *Unary:
		k, err := Infer(x.X, sch)
		if err != nil {
			return KindNull, err
		}
		if x.Op == tokNot {
			if k != KindBool && k != KindNull {
				return KindNull, fmt.Errorf("expr: NOT applied to %s", k)
			}
			return KindBool, nil
		}
		if k != KindInt && k != KindFloat && k != KindNull {
			return KindNull, fmt.Errorf("expr: unary minus applied to %s", k)
		}
		return k, nil
	case *Binary:
		lk, err := Infer(x.L, sch)
		if err != nil {
			return KindNull, err
		}
		rk, err := Infer(x.R, sch)
		if err != nil {
			return KindNull, err
		}
		switch x.Op {
		case tokAnd, tokOr:
			if !boolish(lk) || !boolish(rk) {
				return KindNull, fmt.Errorf("expr: %s over %s and %s", x.Op, lk, rk)
			}
			return KindBool, nil
		case tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
			if !comparable(lk, rk) {
				return KindNull, fmt.Errorf("expr: cannot compare %s with %s", lk, rk)
			}
			return KindBool, nil
		default: // arithmetic
			if !numeric(lk) || !numeric(rk) {
				return KindNull, fmt.Errorf("expr: arithmetic over %s and %s", lk, rk)
			}
			if lk == KindFloat || rk == KindFloat || x.Op == tokSlash {
				return KindFloat, nil
			}
			return KindInt, nil
		}
	case *Call:
		fn, ok := builtins[x.Name]
		if !ok {
			return KindNull, fmt.Errorf("expr: unknown function %q", x.Name)
		}
		if len(x.Args) < fn.minArgs || len(x.Args) > fn.maxArgs {
			return KindNull, fmt.Errorf("expr: %s takes %d..%d args, got %d", x.Name, fn.minArgs, fn.maxArgs, len(x.Args))
		}
		kinds := make([]Kind, len(x.Args))
		for i, a := range x.Args {
			k, err := Infer(a, sch)
			if err != nil {
				return KindNull, err
			}
			kinds[i] = k
		}
		return fn.typ(kinds)
	}
	return KindNull, fmt.Errorf("expr: cannot type %T", n)
}

// CheckPredicate verifies the expression is a well-typed boolean
// predicate over the schema.
func CheckPredicate(n Node, sch Schema) error {
	k, err := Infer(n, sch)
	if err != nil {
		return err
	}
	if k != KindBool && k != KindNull {
		return fmt.Errorf("expr: predicate has type %s, want bool", k)
	}
	return nil
}

func boolish(k Kind) bool { return k == KindBool || k == KindNull }
func numeric(k Kind) bool { return k == KindInt || k == KindFloat || k == KindNull }
func comparable(a, b Kind) bool {
	if a == KindNull || b == KindNull {
		return true
	}
	if numeric(a) && numeric(b) {
		return true
	}
	return a == b
}
