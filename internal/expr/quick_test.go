package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genNode builds a random well-formed expression tree over a fixed
// identifier vocabulary. depth bounds recursion.
func genNode(r *rand.Rand, depth int, numeric bool) Node {
	idents := []string{"a", "b", "c", "qty", "price"}
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return &Ident{Name: idents[r.Intn(len(idents))]}
		case 1:
			// Non-negative: a negative literal prints as "-n", which
			// re-parses as unary minus (semantically equal but
			// structurally different).
			return &Literal{Val: Int(int64(r.Intn(100)))}
		default:
			return &Literal{Val: Float(float64(r.Intn(1000))/8 + 0.5)}
		}
	}
	ops := []Token{tokPlus, tokMinus, tokStar}
	switch r.Intn(5) {
	case 0:
		return &Unary{Op: tokMinus, X: genNode(r, depth-1, true)}
	case 1:
		return &Call{Name: "ABS", Args: []Node{genNode(r, depth-1, true)}}
	default:
		return &Binary{
			Op: ops[r.Intn(len(ops))],
			L:  genNode(r, depth-1, true),
			R:  genNode(r, depth-1, true),
		}
	}
}

// genPredicate builds a random boolean expression tree.
func genPredicate(r *rand.Rand, depth int) Node {
	if depth <= 0 || r.Intn(3) == 0 {
		cmps := []Token{tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe}
		return &Binary{
			Op: cmps[r.Intn(len(cmps))],
			L:  genNode(r, 1, true),
			R:  genNode(r, 1, true),
		}
	}
	switch r.Intn(3) {
	case 0:
		return &Unary{Op: tokNot, X: genPredicate(r, depth-1)}
	case 1:
		return &Binary{Op: tokAnd, L: genPredicate(r, depth-1), R: genPredicate(r, depth-1)}
	default:
		return &Binary{Op: tokOr, L: genPredicate(r, depth-1), R: genPredicate(r, depth-1)}
	}
}

// Property: printing an arbitrary arithmetic tree and re-parsing it
// yields a structurally identical tree.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1 := genNode(r, 4, true)
		n2, err := Parse(n1.String())
		if err != nil {
			t.Logf("seed %d: reparse of %q failed: %v", seed, n1.String(), err)
			return false
		}
		if !Equal(n1, n2) {
			t.Logf("seed %d: %q reparsed as %q", seed, n1.String(), n2.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: same round trip for random predicates.
func TestQuickPredicateRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1 := genPredicate(r, 4)
		n2, err := Parse(n1.String())
		if err != nil {
			return false
		}
		return Equal(n1, n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: evaluation is deterministic and total (no panics) for
// random trees under a full environment; a re-parsed tree evaluates to
// the same value.
func TestQuickEvalStability(t *testing.T) {
	env := MapEnv(map[string]Value{
		"a": Int(3), "b": Int(-2), "c": Float(1.5),
		"qty": Int(7), "price": Float(19.25),
	})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1 := genNode(r, 4, true)
		v1, err1 := Eval(n1, env)
		n2, perr := Parse(n1.String())
		if perr != nil {
			return false
		}
		v2, err2 := Eval(n2, env)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true // both error identically (e.g. div by zero never generated here)
		}
		return v1.Equal(v2) && v1.Kind() == v2.Kind()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rename with an identity map preserves structure, and
// Rename is reversible for a bijective mapping.
func TestQuickRenameBijection(t *testing.T) {
	fwd := map[string]string{"a": "A1", "b": "B1", "c": "C1", "qty": "Q1", "price": "P1"}
	rev := map[string]string{}
	for k, v := range fwd {
		rev[v] = k
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := genNode(r, 4, true)
		back := Rename(Rename(n, fwd), rev)
		return Equal(n, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// conjunction rebuilds a predicate from its conjuncts, left-deep.
func conjunction(cs []Node) Node {
	out := cs[0]
	for _, c := range cs[1:] {
		out = &Binary{Op: tokAnd, L: out, R: c}
	}
	return out
}

// Property: splitting into conjuncts and rejoining them preserves
// predicate evaluation.
func TestQuickConjunctsPreserveSemantics(t *testing.T) {
	env := MapEnv(map[string]Value{
		"a": Int(3), "b": Int(-2), "c": Float(1.5),
		"qty": Int(7), "price": Float(19.25),
	})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := genPredicate(r, 3)
		v1, err1 := EvalBool(n, env)
		v2, err2 := EvalBool(conjunction(Conjuncts(n)), env)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return err1 != nil || v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Value.Hash respects Equal for the numeric kinds.
func TestQuickHashConsistency(t *testing.T) {
	f := func(i int32) bool {
		a := Int(int64(i))
		b := Float(float64(i))
		return a.Equal(b) && a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
