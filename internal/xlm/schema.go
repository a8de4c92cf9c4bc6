package xlm

import (
	"fmt"
	"strings"

	"quarry/internal/expr"
)

// InferSchemas recomputes every node's output schema by propagating
// schemas from the Datastore sources through the DAG, validating each
// operation's parameters against its input schemas along the way.
// Declared Datastore schemas are the fixpoints; all other declared
// schemas are overwritten.
func (d *Design) InferSchemas() error {
	order, err := d.TopoSort()
	if err != nil {
		return err
	}
	for _, n := range order {
		inputs := d.Inputs(n.Name)
		fields, err := d.inferNode(n, inputs)
		if err != nil {
			return err
		}
		if n.Type != OpDatastore {
			n.Fields = fields
		}
	}
	return nil
}

// inferNode computes one node's output schema from its inputs.
func (d *Design) inferNode(n *Node, inputs []*Node) ([]Field, error) {
	arityErr := func(want string) error {
		return fmt.Errorf("xlm: %s node %q has %d inputs, want %s", n.Type, n.Name, len(inputs), want)
	}
	switch n.Type {
	case OpDatastore:
		if len(inputs) != 0 {
			return nil, arityErr("0")
		}
		if len(n.Fields) == 0 {
			return nil, fmt.Errorf("xlm: datastore %q has no declared schema", n.Name)
		}
		seen := map[string]bool{}
		for _, f := range n.Fields {
			if f.Name == "" {
				return nil, fmt.Errorf("xlm: datastore %q has an unnamed field", n.Name)
			}
			if seen[f.Name] {
				return nil, fmt.Errorf("xlm: datastore %q repeats field %q", n.Name, f.Name)
			}
			seen[f.Name] = true
			if _, err := expr.ParseKind(f.Type); err != nil {
				return nil, fmt.Errorf("xlm: datastore %q field %q: %w", n.Name, f.Name, err)
			}
		}
		return n.Fields, nil

	case OpExtraction:
		if len(inputs) != 1 {
			return nil, arityErr("1")
		}
		return append([]Field(nil), inputs[0].Fields...), nil

	case OpSelection:
		if len(inputs) != 1 {
			return nil, arityErr("1")
		}
		pred, err := n.Predicate()
		if err != nil {
			return nil, err
		}
		if err := expr.CheckPredicate(pred, inputs[0].Schema()); err != nil {
			return nil, fmt.Errorf("xlm: selection %q: %w", n.Name, err)
		}
		return append([]Field(nil), inputs[0].Fields...), nil

	case OpProjection:
		if len(inputs) != 1 {
			return nil, arityErr("1")
		}
		specs, err := n.Projections()
		if err != nil {
			return nil, err
		}
		var out []Field
		seen := map[string]bool{}
		for _, sp := range specs {
			f, ok := inputs[0].Field(sp.In)
			if !ok {
				return nil, fmt.Errorf("xlm: projection %q selects missing column %q", n.Name, sp.In)
			}
			if seen[sp.Out] {
				return nil, fmt.Errorf("xlm: projection %q repeats output column %q", n.Name, sp.Out)
			}
			seen[sp.Out] = true
			out = append(out, Field{Name: sp.Out, Type: f.Type})
		}
		return out, nil

	case OpFunction:
		if len(inputs) != 1 {
			return nil, arityErr("1")
		}
		name := n.Param("name")
		if name == "" {
			return nil, fmt.Errorf("xlm: function %q has no output name", n.Name)
		}
		if _, exists := inputs[0].Field(name); exists {
			return nil, fmt.Errorf("xlm: function %q redefines column %q", n.Name, name)
		}
		src := n.Param("expr")
		if src == "" {
			return nil, fmt.Errorf("xlm: function %q has no expression", n.Name)
		}
		e, err := expr.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("xlm: function %q: %w", n.Name, err)
		}
		k, err := expr.Infer(e, inputs[0].Schema())
		if err != nil {
			return nil, fmt.Errorf("xlm: function %q: %w", n.Name, err)
		}
		out := append([]Field(nil), inputs[0].Fields...)
		return append(out, Field{Name: name, Type: k.String()}), nil

	case OpJoin:
		if len(inputs) != 2 {
			return nil, arityErr("2")
		}
		pairs, err := n.JoinPairs()
		if err != nil {
			return nil, err
		}
		l, r := inputs[0], inputs[1]
		for _, p := range pairs {
			lf, ok := l.Field(p[0])
			if !ok {
				return nil, fmt.Errorf("xlm: join %q: left input %q lacks column %q", n.Name, l.Name, p[0])
			}
			rf, ok := r.Field(p[1])
			if !ok {
				return nil, fmt.Errorf("xlm: join %q: right input %q lacks column %q", n.Name, r.Name, p[1])
			}
			if !joinTypesCompatible(lf.Type, rf.Type) {
				return nil, fmt.Errorf("xlm: join %q: %q(%s) vs %q(%s)", n.Name, p[0], lf.Type, p[1], rf.Type)
			}
		}
		var out []Field
		seen := map[string]bool{}
		for _, f := range l.Fields {
			seen[f.Name] = true
			out = append(out, f)
		}
		for _, f := range r.Fields {
			if seen[f.Name] {
				return nil, fmt.Errorf("xlm: join %q: ambiguous column %q; project/rename before joining", n.Name, f.Name)
			}
			out = append(out, f)
		}
		return out, nil

	case OpAggregation:
		if len(inputs) != 1 {
			return nil, arityErr("1")
		}
		group := n.GroupBy()
		aggs, err := n.Aggregates()
		if err != nil {
			return nil, err
		}
		var out []Field
		seen := map[string]bool{}
		for _, g := range group {
			f, ok := inputs[0].Field(g)
			if !ok {
				return nil, fmt.Errorf("xlm: aggregation %q groups by missing column %q", n.Name, g)
			}
			if seen[g] {
				return nil, fmt.Errorf("xlm: aggregation %q repeats group column %q", n.Name, g)
			}
			seen[g] = true
			out = append(out, f)
		}
		for _, a := range aggs {
			if seen[a.Out] {
				return nil, fmt.Errorf("xlm: aggregation %q output %q collides", n.Name, a.Out)
			}
			seen[a.Out] = true
			typ := "int"
			if a.Func != "COUNT" {
				f, ok := inputs[0].Field(a.Col)
				if !ok {
					return nil, fmt.Errorf("xlm: aggregation %q aggregates missing column %q", n.Name, a.Col)
				}
				switch {
				case f.Type == "int" || f.Type == "float":
				case (a.Func == "MIN" || a.Func == "MAX") && (f.Type == "string" || f.Type == "bool"):
					// MIN/MAX over any ordered type: strings compare
					// lexicographically, bools false<true
					// (expr.Value.Compare), computed by the engine kernels
					// and accepted by the OLAP fast path — the validator
					// agrees, keeping star-flow oracle and fast path in
					// parity (ROADMAP "oracle/fast-path parity").
				default:
					return nil, fmt.Errorf("xlm: aggregation %q: %s over non-numeric column %q", n.Name, a.Func, a.Col)
				}
				if a.Func == "AVG" {
					typ = "float"
				} else {
					typ = f.Type
				}
			}
			out = append(out, Field{Name: a.Out, Type: typ})
		}
		return out, nil

	case OpUnion:
		if len(inputs) < 2 {
			return nil, arityErr("≥2")
		}
		first := inputs[0].Fields
		for _, in := range inputs[1:] {
			if len(in.Fields) != len(first) {
				return nil, fmt.Errorf("xlm: union %q inputs differ in arity", n.Name)
			}
			for i := range first {
				if in.Fields[i].Name != first[i].Name || in.Fields[i].Type != first[i].Type {
					return nil, fmt.Errorf("xlm: union %q inputs differ at column %d (%s vs %s)",
						n.Name, i, first[i].Name, in.Fields[i].Name)
				}
			}
		}
		return append([]Field(nil), first...), nil

	case OpSort:
		if len(inputs) != 1 {
			return nil, arityErr("1")
		}
		by := n.SortBy()
		if len(by) == 0 {
			return nil, fmt.Errorf("xlm: sort %q has no ordering columns", n.Name)
		}
		for _, c := range by {
			if _, ok := inputs[0].Field(c); !ok {
				return nil, fmt.Errorf("xlm: sort %q orders by missing column %q", n.Name, c)
			}
		}
		return append([]Field(nil), inputs[0].Fields...), nil

	case OpSurrogateKey:
		if len(inputs) != 1 {
			return nil, arityErr("1")
		}
		key := n.Param("key")
		if key == "" {
			return nil, fmt.Errorf("xlm: surrogate key %q has no key name", n.Name)
		}
		if _, exists := inputs[0].Field(key); exists {
			return nil, fmt.Errorf("xlm: surrogate key %q redefines column %q", n.Name, key)
		}
		on := strings.TrimSpace(n.Param("on"))
		if on == "" {
			return nil, fmt.Errorf("xlm: surrogate key %q has no natural key columns", n.Name)
		}
		for _, c := range strings.Split(on, ",") {
			c = strings.TrimSpace(c)
			if _, ok := inputs[0].Field(c); !ok {
				return nil, fmt.Errorf("xlm: surrogate key %q keyed on missing column %q", n.Name, c)
			}
		}
		out := append([]Field(nil), inputs[0].Fields...)
		return append(out, Field{Name: key, Type: "int"}), nil

	case OpLoader:
		if len(inputs) != 1 {
			return nil, arityErr("1")
		}
		if n.Param("table") == "" {
			return nil, fmt.Errorf("xlm: loader %q has no target table", n.Name)
		}
		return append([]Field(nil), inputs[0].Fields...), nil
	}
	return nil, fmt.Errorf("xlm: node %q has unknown type %q", n.Name, n.Type)
}

// joinTypesCompatible mirrors the engine's join semantics: numerics
// join across int/float, otherwise exact type match.
func joinTypesCompatible(a, b string) bool {
	if a == b {
		return true
	}
	num := func(t string) bool { return t == "int" || t == "float" }
	return num(a) && num(b)
}

// Validate checks the design's structural integrity: known operation
// types, unique names, resolvable edges, acyclicity, per-operation
// arity and parameter well-formedness, and schema propagation
// consistency. Loader-less or Datastore-less designs are rejected —
// an ETL flow must move data from sources to targets — and so is a
// second loader of one table: a loader replaces its table, so one of
// the two would silently discard the other's rows.
func (d *Design) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("xlm: design has no name")
	}
	if len(d.nodes) == 0 {
		return fmt.Errorf("xlm: design %q is empty", d.Name)
	}
	// Sources must all be datastores; sinks must all be loaders.
	for _, n := range d.Sources() {
		if n.Type != OpDatastore {
			return fmt.Errorf("xlm: %s node %q has no inputs", n.Type, n.Name)
		}
	}
	for _, n := range d.Sinks() {
		if n.Type != OpLoader {
			return fmt.Errorf("xlm: %s node %q has no outputs", n.Type, n.Name)
		}
	}
	// A loader replaces its table, and a table has one loader.
	loaderOf := map[string]string{}
	for _, n := range d.nodes {
		if n.Type != OpLoader {
			continue
		}
		if len(d.Outputs(n.Name)) != 0 {
			return fmt.Errorf("xlm: loader %q has outgoing edges", n.Name)
		}
		if m := n.Param("mode"); m != "" && m != "replace" {
			return fmt.Errorf("xlm: loader %q has mode %q; a loader replaces its table", n.Name, m)
		}
		table := n.Param("table")
		if other, dup := loaderOf[table]; dup && table != "" {
			return fmt.Errorf("xlm: loaders %q and %q both load table %q; a table has one loader", other, n.Name, table)
		}
		loaderOf[table] = n.Name
	}
	if len(loaderOf) == 0 {
		return fmt.Errorf("xlm: design %q has no loader", d.Name)
	}
	// InferSchemas performs topological sorting (cycle detection),
	// arity checks and parameter validation in one pass.
	return d.InferSchemas()
}
