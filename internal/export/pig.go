package export

import (
	"fmt"
	"strings"

	"quarry/internal/expr"
	"quarry/internal/xlm"
)

// pigAlias sanitises a node name into a Pig alias.
func pigAlias(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func pigType(t string) string {
	switch t {
	case "int":
		return "long"
	case "float":
		return "double"
	case "string":
		return "chararray"
	case "bool":
		return "boolean"
	default:
		return "bytearray"
	}
}

// pigExpr rewrites an expression into Pig syntax: '==' equality and
// 'and'/'or'/'not' connectives.
func pigExpr(src string) (string, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return "", err
	}
	s := n.String()
	s = strings.ReplaceAll(s, " = ", " == ")
	s = strings.ReplaceAll(s, " <> ", " != ")
	s = strings.ReplaceAll(s, "NOT ", "not ")
	s = strings.ReplaceAll(s, " AND ", " and ")
	s = strings.ReplaceAll(s, " OR ", " or ")
	return s, nil
}

// toPig renders an xLM design as an Apache PigLatin script: one
// relation (alias) per operation in topological order, ending in one
// STORE per loader — the second external notation the paper names for
// the metadata layer's export plug-ins.
func toPig(d *xlm.Design) (string, error) {
	order, err := d.TopoSort()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- PigLatin export of xLM design %q (generated by Quarry)\n", d.Name)
	for _, n := range order {
		inputs := d.Inputs(n.Name)
		alias := pigAlias(n.Name)
		in := func(i int) string { return pigAlias(inputs[i].Name) }
		switch n.Type {
		case xlm.OpDatastore:
			var fields []string
			for _, f := range n.Fields {
				fields = append(fields, fmt.Sprintf("%s:%s", f.Name, pigType(f.Type)))
			}
			fmt.Fprintf(&b, "%s = LOAD '%s' USING PigStorage(',') AS (%s);\n",
				alias, n.Param("table"), strings.Join(fields, ", "))
		case xlm.OpExtraction:
			fmt.Fprintf(&b, "%s = %s; -- extraction\n", alias, in(0))
		case xlm.OpSelection:
			pred, err := pigExpr(n.Param("predicate"))
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s = FILTER %s BY %s;\n", alias, in(0), pred)
		case xlm.OpProjection:
			specs, err := n.Projections()
			if err != nil {
				return "", err
			}
			var gen []string
			for _, sp := range specs {
				if sp.In == sp.Out {
					gen = append(gen, sp.In)
				} else {
					gen = append(gen, fmt.Sprintf("%s AS %s", sp.In, sp.Out))
				}
			}
			fmt.Fprintf(&b, "%s = FOREACH %s GENERATE %s;\n", alias, in(0), strings.Join(gen, ", "))
		case xlm.OpFunction:
			e, err := pigExpr(n.Param("expr"))
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s = FOREACH %s GENERATE *, (%s) AS %s;\n", alias, in(0), e, n.Param("name"))
		case xlm.OpJoin:
			pairs, err := n.JoinPairs()
			if err != nil {
				return "", err
			}
			var l, r []string
			for _, p := range pairs {
				l = append(l, p[0])
				r = append(r, p[1])
			}
			fmt.Fprintf(&b, "%s = JOIN %s BY (%s), %s BY (%s);\n",
				alias, in(0), strings.Join(l, ", "), in(1), strings.Join(r, ", "))
		case xlm.OpAggregation:
			group := n.GroupBy()
			aggs, err := n.Aggregates()
			if err != nil {
				return "", err
			}
			grpAlias := alias + "_grp"
			if len(group) > 0 {
				fmt.Fprintf(&b, "%s = GROUP %s BY (%s);\n", grpAlias, in(0), strings.Join(group, ", "))
			} else {
				fmt.Fprintf(&b, "%s = GROUP %s ALL;\n", grpAlias, in(0))
			}
			var gen []string
			for _, g := range group {
				gen = append(gen, fmt.Sprintf("group.%s AS %s", g, g))
			}
			for _, a := range aggs {
				col := a.Col
				if col == "" {
					col = "*"
				}
				fmt.Fprintf(&b, "") // keep ordering explicit
				gen = append(gen, fmt.Sprintf("%s(%s.%s) AS %s", a.Func, in(0), col, a.Out))
			}
			fmt.Fprintf(&b, "%s = FOREACH %s GENERATE %s;\n", alias, grpAlias, strings.Join(gen, ", "))
		case xlm.OpUnion:
			var ins []string
			for i := range inputs {
				ins = append(ins, in(i))
			}
			fmt.Fprintf(&b, "%s = UNION %s;\n", alias, strings.Join(ins, ", "))
		case xlm.OpSort:
			fmt.Fprintf(&b, "%s = ORDER %s BY %s;\n", alias, in(0), strings.Join(n.SortBy(), ", "))
		case xlm.OpSurrogateKey:
			fmt.Fprintf(&b, "%s = RANK %s BY %s DENSE; -- surrogate key %s\n",
				alias, in(0), strings.ReplaceAll(n.Param("on"), " ", ""), n.Param("key"))
		case xlm.OpLoader:
			fmt.Fprintf(&b, "STORE %s INTO '%s' USING PigStorage(',');\n", in(0), n.Param("table"))
		default:
			return "", fmt.Errorf("export: cannot render %s node %q as Pig", n.Type, n.Name)
		}
	}
	return b.String(), nil
}
