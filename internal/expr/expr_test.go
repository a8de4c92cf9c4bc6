package expr

import (
	"strings"
	"testing"
)

func TestParseLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"42", Int(42)},
		{"3.25", Float(3.25)},
		{"'Spain'", Str("Spain")},
		{"'O''Brien'", Str("O'Brien")},
		{"TRUE", Bool(true)},
		{"false", Bool(false)},
		{"NULL", Null()},
		{"-7", Int(-7)}, // unary minus over literal
	}
	for _, c := range cases {
		n, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		got, err := Eval(n, MapEnv(nil))
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if !got.Equal(c.want) || got.IsNull() != c.want.IsNull() {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "((1)", "'unterminated", "1 ! 2", "foo(", "unknownfn(1)",
		"AND 1", "1 2", "@", "1 = = 2",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestArithmetic(t *testing.T) {
	env := MapEnv(map[string]Value{
		"x": Int(10),
		"y": Float(2.5),
		"z": Int(3),
	})
	cases := []struct {
		src  string
		want Value
	}{
		{"x + z", Int(13)},
		{"x - z", Int(7)},
		{"x * z", Int(30)},
		{"x / 2", Int(5)},
		{"x / 4", Float(2.5)},
		{"x % z", Int(1)},
		{"x * y", Float(25)},
		{"-x + 1", Int(-9)},
		{"2 + 3 * 4", Int(14)},
		{"(2 + 3) * 4", Int(20)},
		{"x / z * z", Float(10.0 / 3.0 * 3.0)}, // float division path
	}
	for _, c := range cases {
		n := MustParse(c.src)
		got, err := Eval(n, env)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("Eval(%q) = %v (%v), want %v (%v)", c.src, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, src := range []string{"1 / 0", "1 % 0", "1.0 / 0"} {
		if _, err := Eval(MustParse(src), MapEnv(nil)); err == nil {
			t.Errorf("Eval(%q) succeeded, want division error", src)
		}
	}
}

func TestComparisons(t *testing.T) {
	env := MapEnv(map[string]Value{
		"n_name": Str("Spain"),
		"qty":    Int(5),
		"price":  Float(10.5),
	})
	cases := []struct {
		src  string
		want bool
	}{
		{"n_name = 'Spain'", true},
		{"n_name <> 'France'", true},
		{"n_name != 'Spain'", false},
		{"qty < 10", true},
		{"qty <= 5", true},
		{"qty > 5", false},
		{"qty >= 5", true},
		{"price > qty", true},
		{"qty = 5.0", true}, // cross-kind numeric equality
		{"NOT (qty = 5)", false},
		{"qty = 5 AND n_name = 'Spain'", true},
		{"qty = 6 OR n_name = 'Spain'", true},
		{"qty = 6 AND n_name = 'Spain'", false},
	}
	for _, c := range cases {
		got, err := EvalBool(MustParse(c.src), env)
		if err != nil {
			t.Fatalf("EvalBool(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("EvalBool(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	env := MapEnv(map[string]Value{"a": Null(), "b": Int(1)})
	// NULL propagates through arithmetic and comparison.
	for _, src := range []string{"a + b", "a = b", "a < b", "-a"} {
		v, err := Eval(MustParse(src), env)
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		if !v.IsNull() {
			t.Errorf("Eval(%q) = %v, want NULL", src, v)
		}
	}
	// SQL WHERE: NULL predicate is false.
	got, err := EvalBool(MustParse("a = b"), env)
	if err != nil || got {
		t.Errorf("EvalBool(NULL = 1) = %v, %v; want false, nil", got, err)
	}
	// Three-valued logic: FALSE AND NULL = FALSE, TRUE OR NULL = TRUE.
	for src, want := range map[string]bool{
		"b = 2 AND a = b": false,
		"b = 1 OR a = b":  true,
	} {
		got, err := EvalBool(MustParse(src), env)
		if err != nil {
			t.Fatalf("EvalBool(%q): %v", src, err)
		}
		if got != want {
			t.Errorf("EvalBool(%q) = %v, want %v", src, got, want)
		}
	}
	// TRUE AND NULL = NULL (collapses to false under EvalBool).
	got2, err := EvalBool(MustParse("b = 1 AND a = b"), env)
	if err != nil || got2 {
		t.Errorf("EvalBool(TRUE AND NULL) = %v, %v; want false, nil", got2, err)
	}
}

func TestUnboundIdentifier(t *testing.T) {
	if _, err := Eval(MustParse("missing + 1"), MapEnv(nil)); err == nil {
		t.Fatal("expected unbound identifier error")
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"ABS(-4)", Int(4)},
		{"ABS(-4.5)", Float(4.5)},
		{"ROUND(3.14159, 2)", Float(3.14)},
		{"ROUND(2.5)", Float(3)},
		{"LENGTH('hello')", Int(5)},
		{"UPPER('spain')", Str("SPAIN")},
		{"LOWER('SPAIN')", Str("spain")},
		{"SUBSTR('warehouse', 1, 4)", Str("ware")},
		{"SUBSTR('warehouse', 5)", Str("house")},
		{"CONCAT('a', 'b', 'c')", Str("abc")},
		{"COALESCE(NULL, 7)", Int(7)},
		{"COALESCE(NULL, NULL)", Null()},
		{"MIN2(3, 8)", Int(3)},
		{"MAX2(3, 8)", Int(8)},
	}
	for _, c := range cases {
		got, err := Eval(MustParse(c.src), MapEnv(nil))
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestBuiltinArity(t *testing.T) {
	sch := MapSchema(nil)
	if _, err := Infer(MustParse("ABS(1, 2)"), sch); err == nil {
		t.Error("ABS(1,2) type-checked, want arity error")
	}
}

func TestIdents(t *testing.T) {
	n := MustParse("l_extendedprice * (1 - l_discount) + ABS(l_tax) - l_discount")
	got := Idents(n)
	want := []string{"l_discount", "l_extendedprice", "l_tax"}
	if len(got) != len(want) {
		t.Fatalf("Idents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Idents = %v, want %v", got, want)
		}
	}
}

func TestRename(t *testing.T) {
	n := MustParse("a + b * a")
	renamed := Rename(n, map[string]string{"a": "x"})
	if renamed.String() != "x + b * x" {
		t.Errorf("Rename = %q", renamed.String())
	}
	// Original unchanged.
	if n.String() != "a + b * a" {
		t.Errorf("original mutated: %q", n.String())
	}
}

func TestConjunctsAndAnd(t *testing.T) {
	n := MustParse("a = 1 AND (b = 2 OR c = 3) AND c = 3")
	var got []string
	for _, c := range Conjuncts(n) {
		got = append(got, c.String())
	}
	if want := []string{"a = 1", "b = 2 OR c = 3", "c = 3"}; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("Conjuncts = %q, want %q", got, want)
	}
	if cs := Conjuncts(MustParse("a = 1 OR b = 2")); len(cs) != 1 {
		t.Errorf("Conjuncts of a disjunction = %d nodes, want 1", len(cs))
	}
}

func TestCompareOp(t *testing.T) {
	n, err := CompareOp(">=", &Ident{Name: "x"}, &Literal{Val: Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "x >= 3" {
		t.Errorf("CompareOp = %q", n.String())
	}
	if _, err := CompareOp("~~", nil, nil); err == nil {
		t.Error("CompareOp(~~) succeeded, want error")
	}
}

func TestInfer(t *testing.T) {
	sch := MapSchema(map[string]Kind{
		"price": KindFloat,
		"qty":   KindInt,
		"name":  KindString,
		"flag":  KindBool,
	})
	cases := []struct {
		src  string
		want Kind
	}{
		{"price * qty", KindFloat},
		{"qty + 1", KindInt},
		{"qty / 2", KindFloat}, // division always floats statically
		{"name = 'x'", KindBool},
		{"qty < price", KindBool},
		{"flag AND qty > 0", KindBool},
		{"UPPER(name)", KindString},
		{"LENGTH(name)", KindInt},
		{"COALESCE(NULL, qty)", KindInt},
	}
	for _, c := range cases {
		got, err := Infer(MustParse(c.src), sch)
		if err != nil {
			t.Fatalf("Infer(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Infer(%q) = %v, want %v", c.src, got, c.want)
		}
	}
	bad := []string{
		"name + 1", "flag + 1", "NOT qty", "name AND flag", "qty = name", "undefined + 1",
	}
	for _, src := range bad {
		if _, err := Infer(MustParse(src), sch); err == nil {
			t.Errorf("Infer(%q) succeeded, want type error", src)
		}
	}
}

func TestCheckPredicate(t *testing.T) {
	sch := MapSchema(map[string]Kind{"x": KindInt})
	if err := CheckPredicate(MustParse("x > 1"), sch); err != nil {
		t.Errorf("CheckPredicate(x > 1): %v", err)
	}
	if err := CheckPredicate(MustParse("x + 1"), sch); err == nil {
		t.Error("CheckPredicate(x + 1) succeeded, want error")
	}
}

func TestStringRoundTripFixed(t *testing.T) {
	srcs := []string{
		"l_extendedprice * (1 - l_discount)",
		"a = 1 AND (b = 2 OR c = 3)",
		"NOT (x > 1)",
		"-(a + b)",
		"ABS(x - y) <= 0.5",
		"CONCAT(UPPER(name), '-', 'suffix')",
		"a - b - c",
		"a - (b - c)",
		"a / b / c",
	}
	for _, src := range srcs {
		n1 := MustParse(src)
		n2, err := Parse(n1.String())
		if err != nil {
			t.Fatalf("reparse %q (printed %q): %v", src, n1.String(), err)
		}
		if !Equal(n1, n2) {
			t.Errorf("round trip changed %q: printed %q, reparsed %q", src, n1.String(), n2.String())
		}
	}
}

func TestValueCompareAndHash(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("Int(3) != Float(3)")
	}
	if Int(3).Hash() != Float(3).Hash() {
		t.Error("hash of numerically equal values differs")
	}
	if Str("a").Hash() == Str("b").Hash() {
		t.Error("distinct strings hash equal (suspicious)")
	}
	if _, err := Str("a").Compare(Int(1)); err == nil {
		t.Error("cross-kind compare succeeded")
	}
	if _, err := Null().Compare(Int(1)); err == nil {
		t.Error("NULL compare succeeded")
	}
	c, err := Bool(false).Compare(Bool(true))
	if err != nil || c != -1 {
		t.Errorf("false<true compare = %d, %v", c, err)
	}
}

func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{
		"bigint": KindInt, "double precision": KindFloat, "VARCHAR": KindString,
		"boolean": KindBool, "int64": KindInt,
	} {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) succeeded")
	}
}

func TestSliceEnvRebinds(t *testing.T) {
	e, err := Parse("a + b")
	if err != nil {
		t.Fatal(err)
	}
	env := NewSliceEnv(map[string]int{"a": 0, "b": 1})
	f := env.Env()
	rows := [][]Value{
		{Int(1), Int(2)},
		{Int(10), Int(20)},
	}
	want := []int64{3, 30}
	for i, row := range rows {
		env.Bind(row)
		v, err := Eval(e, f)
		if err != nil {
			t.Fatal(err)
		}
		if v.AsInt() != want[i] {
			t.Errorf("row %d = %v, want %d", i, v, want[i])
		}
	}
	// Unbound name and out-of-range index both report unbound.
	env.Bind(rows[0][:1])
	if _, err := Eval(e, f); err == nil {
		t.Error("short row bound b")
	}
	if _, err := Eval(MustParse("ghost"), f); err == nil {
		t.Error("unknown name bound")
	}
}

// MapSchema adapts a map to a Schema.
func MapSchema(m map[string]Kind) Schema {
	return func(name string) (Kind, bool) {
		k, ok := m[name]
		return k, ok
	}
}

// Equal reports structural equality of two expression trees.
func Equal(a, b Node) bool {
	switch x := a.(type) {
	case *Ident:
		y, ok := b.(*Ident)
		return ok && x.Name == y.Name
	case *Literal:
		y, ok := b.(*Literal)
		return ok && x.Val.Equal(y.Val) && x.Val.Kind() == y.Val.Kind()
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && Equal(x.X, y.X)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Call:
		y, ok := b.(*Call)
		if !ok || !strings.EqualFold(x.Name, y.Name) || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}
