package engine

import (
	"math"
	"math/bits"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// A Function's arithmetic on typed vectors. An expression built only of
// identifiers, Int and Float literals, unary minus and the binary
// operators + - * / % compiles once into a post-order program (compile),
// and the program computes a batch a column at a time when every input
// it reads is an int or a float vector: no expr.Value is built per row.
// It follows evalArith's rules — int ⊗ int wraps, a float operand makes
// the operation a float one, % on floats is math.Mod — and writes every
// float result through an explicit float64 conversion, so that no
// platform fuses a multiply and an add the row evaluator performs
// apart. A NULL operand makes the result NULL: the operands' NULL
// bitmaps are ORed.
//
// The program declines a batch, and vecFunction evaluates it a row at a
// time, wherever the row evaluator's answer is not a typed vector of
// one kind or is an error: an input that is not an int or float vector
// (a mixed or all-NULL vector, strings, bools), an int / int (Int where
// the division is exact, Float elsewhere), a / or % meeting a zero
// divisor on a row no operand makes NULL (an error, which the row loop
// reports in its words, at its first row), an empty batch and a result
// NULL on every row (storage.VectorOf's mixed form).

// arithStep is one instruction of a program: push an input or a
// literal, or pop operands and push the result of op.
type arithStep struct {
	op   byte // 'x' an input, 'k' a literal, 'n' negation, or '+', '-', '*', '/', '%'
	slot int  // 'x': the Function's input slot
	lit  *operand
}

// operand is a register's value over the batch's rows: ints or floats
// by kind, and the rows that are NULL (nil when none is). Its slices
// may be an input vector's own, a register's buffer or a literal's
// broadcast; they are read, never written, through an operand.
type operand struct {
	kind   expr.Kind
	ints   []int64
	floats []float64
	nulls  []uint64
}

// arithRegs is one stack depth's buffers, reused across batches.
type arithRegs struct {
	ints   []int64
	floats []float64
	nulls  []uint64
}

type arithProgram struct {
	steps    []arithStep
	regs     []arithRegs       // one per stack depth
	stack    []operand         // scratch: the operands pushed
	inputs   []operand         // scratch: each input slot's rows
	gathered []*storage.Vector // per input slot: its selected rows, gathered
}

// compileArith compiles e for inputs numbered by slots, or returns nil
// when e is not arithmetic the program covers or names a column slots
// lacks.
func compileArith(e expr.Node, slots map[string]int) *arithProgram {
	p := &arithProgram{}
	depth := 0
	var walk func(expr.Node) bool
	walk = func(n expr.Node) bool {
		switch x := n.(type) {
		case *expr.Ident:
			slot, ok := slots[x.Name]
			if !ok {
				return false
			}
			p.steps = append(p.steps, arithStep{op: 'x', slot: slot})
			depth++
		case *expr.Literal:
			if !x.Val.IsNumeric() {
				return false
			}
			lit := &operand{kind: x.Val.Kind(), ints: []int64{x.Val.AsInt()}}
			if f, _ := x.Val.AsFloat(); lit.kind == expr.KindFloat {
				lit.ints, lit.floats = nil, []float64{f}
			}
			p.steps = append(p.steps, arithStep{op: 'k', lit: lit})
			depth++
		case *expr.Unary:
			if x.Op.String() != "-" || !walk(x.X) {
				return false
			}
			p.steps = append(p.steps, arithStep{op: 'n'})
		case *expr.Binary:
			switch op := x.Op.String(); op {
			case "+", "-", "*", "/", "%":
				if !walk(x.L) || !walk(x.R) {
					return false
				}
				p.steps = append(p.steps, arithStep{op: op[0]})
				depth--
			default:
				return false
			}
		default:
			return false
		}
		if depth > len(p.regs) {
			p.regs = append(p.regs, arithRegs{})
		}
		return true
	}
	if !walk(e) {
		return nil
	}
	p.stack = make([]operand, 0, len(p.regs))
	p.inputs, p.gathered = make([]operand, len(slots)), make([]*storage.Vector, len(slots))
	return p
}

// run computes the batch's column from the columns cols numbers by
// slot, or returns nil where the program declines it (see above).
func (p *arithProgram) run(b *Batch, cols []int) *storage.Vector {
	n := b.N
	if n == 0 {
		return nil
	}
	for i, j := range cols {
		c := b.Cols[j]
		vec := c.Vec
		if vec.Kind != expr.KindInt && vec.Kind != expr.KindFloat {
			return nil
		}
		if c.Sel != nil {
			if p.gathered[i] == nil {
				p.gathered[i] = &storage.Vector{}
			}
			vec.Gather(p.gathered[i], c.Sel)
			vec = p.gathered[i]
		}
		p.inputs[i] = operand{kind: vec.Kind, ints: vec.Ints, floats: vec.Floats, nulls: vec.Nulls}
	}
	words := (n + 63) / 64
	stack := p.stack[:0]
	for _, s := range p.steps {
		switch s.op {
		case 'x':
			stack = append(stack, p.inputs[s.slot])
			continue
		case 'k':
			stack = append(stack, s.lit.broadcast(n))
			continue
		}
		d := len(stack) - 1
		if s.op != 'n' {
			d--
		}
		reg := &p.regs[d]
		a := stack[d]
		if s.op == 'n' {
			stack[d] = reg.negate(a, n)
			continue
		}
		c := stack[d+1]
		nulls := reg.or(a.nulls, c.nulls, words)
		if s.op == '/' && a.kind == expr.KindInt && c.kind == expr.KindInt {
			return nil // Int where the division is exact, Float elsewhere
		}
		if (s.op == '/' || s.op == '%') && c.zeroAt(n, nulls) {
			return nil // the row loop reports the error
		}
		stack = stack[:d+1]
		stack[d] = reg.arith(s.op, a, c, n, nulls)
	}
	p.stack = stack
	return result(stack[0], n, words)
}

// broadcast is the literal over n rows.
func (l *operand) broadcast(n int) operand {
	if l.kind == expr.KindInt && len(l.ints) < n {
		l.ints = fill(l.ints, max(n, 2*len(l.ints)))
	}
	if l.kind == expr.KindFloat && len(l.floats) < n {
		l.floats = fill(l.floats, max(n, 2*len(l.floats)))
	}
	return operand{kind: l.kind, ints: l.ints, floats: l.floats}
}

// fill returns s grown to n copies of its first entry.
func fill[T int64 | float64](s []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = s[0]
	}
	return out
}

// or returns the rows either bitmap holds NULL, in the register's
// buffer; nil when neither holds any.
func (r *arithRegs) or(a, b []uint64, words int) []uint64 {
	if a == nil && b == nil {
		return nil
	}
	r.nulls = Sized(r.nulls, words)
	for w := range r.nulls {
		var x uint64
		if a != nil {
			x = a[w]
		}
		if b != nil {
			x |= b[w]
		}
		r.nulls[w] = x
	}
	return r.nulls
}

// zeroAt reports whether the divisor o is zero on some of the n rows
// that nulls does not hold NULL.
func (o operand) zeroAt(n int, nulls []uint64) bool {
	if o.kind == expr.KindInt {
		return zeroAt(o.ints[:n], nulls)
	}
	return zeroAt(o.floats[:n], nulls)
}

func zeroAt[T int64 | float64](x []T, nulls []uint64) bool {
	for i, v := range x {
		if v == 0 && (nulls == nil || nulls[i>>6]&(1<<(uint(i)&63)) == 0) {
			return true
		}
	}
	return false
}

// negate is −a, into the register.
func (r *arithRegs) negate(a operand, n int) operand {
	out := operand{kind: a.kind, nulls: a.nulls}
	if a.kind == expr.KindInt {
		r.ints = Sized(r.ints, n)
		for i, v := range a.ints[:n] {
			r.ints[i] = -v
		}
		out.ints = r.ints
		return out
	}
	r.floats = Sized(r.floats, n)
	for i, v := range a.floats[:n] {
		r.floats[i] = -v
	}
	out.floats = r.floats
	return out
}

// arith is a op b over n rows, into the register; nulls is the result's
// NULL bitmap. An int % meets a zero divisor only on a NULL row, whose
// value is never read: it gets 0.
func (r *arithRegs) arith(op byte, a, b operand, n int, nulls []uint64) operand {
	if a.kind == expr.KindInt && b.kind == expr.KindInt {
		r.ints = Sized(r.ints, n)
		x, y, dst := a.ints[:n], b.ints[:n], r.ints
		switch op {
		case '+':
			for i := range dst {
				dst[i] = x[i] + y[i]
			}
		case '-':
			for i := range dst {
				dst[i] = x[i] - y[i]
			}
		case '*':
			for i := range dst {
				dst[i] = x[i] * y[i]
			}
		case '%':
			for i := range dst {
				if y[i] == 0 {
					dst[i] = 0
				} else {
					dst[i] = x[i] % y[i]
				}
			}
		}
		return operand{kind: expr.KindInt, ints: dst, nulls: nulls}
	}
	r.floats = Sized(r.floats, n)
	switch {
	case a.kind == expr.KindInt:
		floatArith(op, r.floats, a.ints[:n], b.floats[:n])
	case b.kind == expr.KindInt:
		floatArith(op, r.floats, a.floats[:n], b.ints[:n])
	default:
		floatArith(op, r.floats, a.floats[:n], b.floats[:n])
	}
	return operand{kind: expr.KindFloat, floats: r.floats, nulls: nulls}
}

// floatArith sets dst[i] to x[i] op y[i] in float64, an int operand
// promoted as evalArith's AsFloat promotes it.
func floatArith[X, Y int64 | float64](op byte, dst []float64, x []X, y []Y) {
	x, y = x[:len(dst)], y[:len(dst)]
	switch op {
	case '+':
		for i := range dst {
			dst[i] = float64(float64(x[i]) + float64(y[i]))
		}
	case '-':
		for i := range dst {
			dst[i] = float64(float64(x[i]) - float64(y[i]))
		}
	case '*':
		for i := range dst {
			dst[i] = float64(float64(x[i]) * float64(y[i]))
		}
	case '/':
		for i := range dst {
			dst[i] = float64(float64(x[i]) / float64(y[i]))
		}
	case '%':
		for i := range dst {
			dst[i] = math.Mod(float64(x[i]), float64(y[i]))
		}
	}
}

// result is the program's answer as the vector storage.VectorOf makes of
// the row loop's values: typed, zero on its NULL rows, Nulls nil when no
// row is NULL; nil when every row is (VectorOf's mixed form, left to
// the row loop).
func result(o operand, n, words int) *storage.Vector {
	v := &storage.Vector{Kind: o.kind}
	nulls := 0
	last := ^uint64(0) >> (uint(-n) & 63) // the last word's rows
	for w := range words {
		if o.nulls != nil {
			m := o.nulls[w]
			if w == words-1 {
				m &= last
			}
			nulls += bits.OnesCount64(m)
		}
	}
	switch {
	case nulls == n:
		return nil
	case nulls > 0:
		v.Nulls = make([]uint64, words)
		copy(v.Nulls, o.nulls[:words])
		v.Nulls[words-1] &= last
	}
	if o.kind == expr.KindInt {
		v.Ints = make([]int64, n)
		copy(v.Ints, o.ints[:n])
	} else {
		v.Floats = make([]float64, n)
		copy(v.Floats, o.floats[:n])
	}
	for w, m := range v.Nulls {
		for ; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			if o.kind == expr.KindInt {
				v.Ints[i] = 0
			} else {
				v.Floats[i] = 0
			}
		}
	}
	return v
}
