package expr

import (
	"sort"
	"strconv"
	"strings"
)

// Node is a parsed expression tree node. Nodes are immutable after
// construction; transformations return new trees.
type Node interface {
	// String renders the node as canonical, re-parseable source text.
	String() string
	// precedence of the node's top construct, for minimal-paren printing.
	precedence() int
}

// Ident is an attribute (column) reference.
type Ident struct {
	Name string
}

// Literal is a constant value.
type Literal struct {
	Val Value
}

// Unary is a prefix operation: NOT x or -x.
type Unary struct {
	Op Token
	X  Node
}

// Binary is an infix operation.
type Binary struct {
	Op   Token
	L, R Node
}

// Call is a builtin function application.
type Call struct {
	Name string
	Args []Node
}

const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precMul
	precUnary
	precPrimary
)

func (n *Ident) precedence() int   { return precPrimary }
func (n *Literal) precedence() int { return precPrimary }
func (n *Call) precedence() int    { return precPrimary }

func (n *Unary) precedence() int {
	if n.Op == tokNot {
		return precNot
	}
	return precUnary
}

func (n *Binary) precedence() int {
	switch n.Op {
	case tokOr:
		return precOr
	case tokAnd:
		return precAnd
	case tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
		return precCmp
	case tokPlus, tokMinus:
		return precAdd
	default:
		return precMul
	}
}

func (n *Ident) String() string   { return n.Name }
func (n *Literal) String() string { return n.Val.String() }

func (n *Unary) String() string {
	inner := n.X.String()
	if n.X.precedence() < n.precedence() {
		inner = "(" + inner + ")"
	}
	if n.Op == tokNot {
		return "NOT " + inner
	}
	return "-" + inner
}

func (n *Binary) String() string {
	l := n.L.String()
	if n.L.precedence() < n.precedence() {
		l = "(" + l + ")"
	}
	r := n.R.String()
	// Right child needs parens at equal precedence too (left assoc).
	if n.R.precedence() <= n.precedence() {
		r = "(" + r + ")"
	}
	return l + " " + n.Op.String() + " " + r
}

func (n *Call) String() string {
	parts := make([]string, len(n.Args))
	for i, a := range n.Args {
		parts[i] = a.String()
	}
	return n.Name + "(" + strings.Join(parts, ", ") + ")"
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

// Idents returns the sorted, de-duplicated set of attribute names the
// expression references.
func Idents(n Node) []string {
	set := map[string]bool{}
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Ident:
			set[x.Name] = true
		case *Unary:
			walk(x.X)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Call:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(n)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Rename returns a copy of the tree with identifiers substituted
// according to the given mapping; identifiers absent from the map are
// kept as-is.
func Rename(n Node, m map[string]string) Node {
	switch x := n.(type) {
	case *Ident:
		if nn, ok := m[x.Name]; ok {
			return &Ident{Name: nn}
		}
		return &Ident{Name: x.Name}
	case *Literal:
		return &Literal{Val: x.Val}
	case *Unary:
		return &Unary{Op: x.Op, X: Rename(x.X, m)}
	case *Binary:
		return &Binary{Op: x.Op, L: Rename(x.L, m), R: Rename(x.R, m)}
	case *Call:
		args := make([]Node, len(x.Args))
		for i, a := range x.Args {
			args[i] = Rename(a, m)
		}
		return &Call{Name: x.Name, Args: args}
	}
	return n
}

// Conjuncts splits a predicate into its top-level AND-ed conjuncts.
// A non-AND expression yields a single-element slice.
func Conjuncts(n Node) []Node {
	if b, ok := n.(*Binary); ok && b.Op == tokAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Node{n}
}

// And combines predicates into a single conjunction. And() of an empty
// slice returns the TRUE literal; of one element, the element itself.
func And(preds ...Node) Node {
	var out Node
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
			continue
		}
		out = &Binary{Op: tokAnd, L: out, R: p}
	}
	if out == nil {
		return &Literal{Val: Bool(true)}
	}
	return out
}

// Comparison destructures a node of the form `column OP literal` (or
// `literal OP column`, with the operator flipped accordingly) into
// its parts. op is spelled "=", "!=", "<", "<=", ">" or ">=". ok is
// false for any other node shape — callers use this to recognise
// filter conjuncts that can be pushed down as storage prune
// predicates.
func Comparison(n Node) (col string, op string, lit Value, ok bool) {
	b, isBin := n.(*Binary)
	if !isBin {
		return "", "", Value{}, false
	}
	switch b.Op {
	case tokEq:
		op = "="
	case tokNeq:
		op = "!="
	case tokLt:
		op = "<"
	case tokLe:
		op = "<="
	case tokGt:
		op = ">"
	case tokGe:
		op = ">="
	default:
		return "", "", Value{}, false
	}
	if id, okL := b.L.(*Ident); okL {
		if l, okR := b.R.(*Literal); okR {
			return id.Name, op, l.Val, true
		}
		return "", "", Value{}, false
	}
	id, okR := b.R.(*Ident)
	l, okL := b.L.(*Literal)
	if !okR || !okL {
		return "", "", Value{}, false
	}
	switch op { // literal on the left: flip the ordering
	case "<":
		op = ">"
	case "<=":
		op = ">="
	case ">":
		op = "<"
	case ">=":
		op = "<="
	}
	return id.Name, op, l.Val, true
}

// CompareOp builds a comparison node from an operator spelled as in
// xRQ (`=`, `!=`, `<>`, `<`, `<=`, `>`, `>=`).
func CompareOp(op string, l, r Node) (Node, error) {
	var t Token
	switch op {
	case "=", "==":
		t = tokEq
	case "!=", "<>":
		t = tokNeq
	case "<":
		t = tokLt
	case "<=":
		t = tokLe
	case ">":
		t = tokGt
	case ">=":
		t = tokGe
	default:
		return nil, &ParseError{Msg: "unknown comparison operator " + strconv.Quote(op)}
	}
	return &Binary{Op: t, L: l, R: r}, nil
}
