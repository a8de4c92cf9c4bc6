package expr

import "testing"

// FuzzExprParse: Parse takes filter text from outside (cube queries,
// requirement formulas), so it must refuse what it cannot read rather
// than panic, and what it accepts must print (String) to a source that
// parses back to an Equal tree — the printed form is what the planner
// hands on, and what the star-flow oracle compiles.
func FuzzExprParse(f *testing.F) {
	for _, seed := range []string{
		// expr_test.go: literals, arithmetic, predicates, builtins,
		// round trips and refusals.
		"42", "3.25", "'Spain'", "'O''Brien'", "TRUE", "false", "NULL", "-7",
		"x % z", "-x + 1", "2 + 3 * 4", "(2 + 3) * 4", "x / z * z", "1 / 0",
		"n_name <> 'France'", "n_name != 'Spain'", "qty <= 5", "qty = 5.0", "NOT (qty = 5)",
		"qty = 6 OR n_name = 'Spain'", "ROUND(3.14159, 2)", "SUBSTR('warehouse', 1, 4)",
		"CONCAT('a', 'b', 'c')", "COALESCE(NULL, 7)", "MIN2(3, 8)", "flag AND qty > 0",
		"l_extendedprice * (1 - l_discount)", "a = 1 AND (b = 2 OR c = 3)", "-(a + b)",
		"ABS(x - y) <= 0.5", "CONCAT(UPPER(name), '-', 'suffix')", "a - (b - c)", "a / b / c",
		"", "1 +", "((1)", "'unterminated", "1 ! 2", "foo(", "unknownfn(1)", "AND 1", "1 2", "@", "1 = = 2",
		// The benchmark workloads' filters and the requirement formulas.
		"c_mktsegment = 'BUILDING' AND quantity > 25", "p_brand = 'Brand#13'",
		"(p_retailprice - ps_supplycost) * ps_availqty", "l_extendedprice * (1 + l_tax)",
		// The dirty-star filters of the olap property suites.
		"a_rank >= 102 AND amt < 50", "b_w > 1.5 OR tag = 't1'", "10 / (qty - 3) > 1", "tag > 5",
		"quantity >= 9007199254740993 AND (flag OR price > 3)", "NOT flag AND price <> 0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		printed := n.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if !Equal(n, again) {
			t.Fatalf("%q prints as %q, which parses to %q", src, printed, again.String())
		}
	})
}
