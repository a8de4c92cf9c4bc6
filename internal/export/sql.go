package export

import (
	"fmt"
	"sort"
	"strings"

	"quarry/internal/xlm"
)

// toSQL renders an xLM design as one INSERT INTO … SELECT
// statement per loader, composing the upstream operations into nested
// subqueries. The output targets the same PostgreSQL dialect the
// Design Deployer's DDL uses, so a deployment script plus this export
// is a complete SQL-only realisation of the ETL process.
func toSQL(d *xlm.Design) (string, error) {
	g := &sqlGen{d: d}
	var stmts []string
	var loaders []*xlm.Node
	for _, n := range d.Nodes() {
		if n.Type == xlm.OpLoader {
			loaders = append(loaders, n)
		}
	}
	sort.Slice(loaders, func(i, j int) bool { return loaders[i].Param("table") < loaders[j].Param("table") })
	for _, l := range loaders {
		stmt, err := g.loader(l)
		if err != nil {
			return "", err
		}
		stmts = append(stmts, stmt)
	}
	if len(stmts) == 0 {
		return "", fmt.Errorf("export: design %q has no loaders", d.Name)
	}
	return strings.Join(stmts, "\n\n"), nil
}

type sqlGen struct {
	d     *xlm.Design
	alias int
}

func (g *sqlGen) nextAlias() string {
	g.alias++
	return fmt.Sprintf("q%d", g.alias)
}

func q(ident string) string { return `"` + strings.ReplaceAll(ident, `"`, `""`) + `"` }

func (g *sqlGen) loader(l *xlm.Node) (string, error) {
	inputs := g.d.Inputs(l.Name)
	if len(inputs) != 1 {
		return "", fmt.Errorf("export: loader %q has %d inputs", l.Name, len(inputs))
	}
	body, err := g.render(inputs[0])
	if err != nil {
		return "", err
	}
	cols := make([]string, len(inputs[0].Fields))
	for i, f := range inputs[0].Fields {
		cols[i] = q(f.Name)
	}
	return fmt.Sprintf("INSERT INTO %s (%s)\n%s;", q(l.Param("table")), strings.Join(cols, ", "), body), nil
}

// render produces a SELECT query equivalent to the node's output.
func (g *sqlGen) render(n *xlm.Node) (string, error) {
	inputs := g.d.Inputs(n.Name)
	switch n.Type {
	case xlm.OpDatastore:
		cols := make([]string, len(n.Fields))
		for i, f := range n.Fields {
			cols[i] = q(f.Name)
		}
		return fmt.Sprintf("SELECT %s FROM %s", strings.Join(cols, ", "), q(n.Param("table"))), nil

	case xlm.OpExtraction:
		return g.render(inputs[0])

	case xlm.OpSelection:
		in, err := g.render(inputs[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("SELECT * FROM (\n%s\n) %s WHERE %s", indent(in), g.nextAlias(), n.Param("predicate")), nil

	case xlm.OpProjection:
		in, err := g.render(inputs[0])
		if err != nil {
			return "", err
		}
		specs, err := n.Projections()
		if err != nil {
			return "", err
		}
		var cols []string
		for _, sp := range specs {
			if sp.In == sp.Out {
				cols = append(cols, q(sp.Out))
			} else {
				cols = append(cols, fmt.Sprintf("%s AS %s", q(sp.In), q(sp.Out)))
			}
		}
		return fmt.Sprintf("SELECT %s FROM (\n%s\n) %s", strings.Join(cols, ", "), indent(in), g.nextAlias()), nil

	case xlm.OpFunction:
		in, err := g.render(inputs[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("SELECT *, %s AS %s FROM (\n%s\n) %s",
			n.Param("expr"), q(n.Param("name")), indent(in), g.nextAlias()), nil

	case xlm.OpJoin:
		l, err := g.render(inputs[0])
		if err != nil {
			return "", err
		}
		r, err := g.render(inputs[1])
		if err != nil {
			return "", err
		}
		pairs, err := n.JoinPairs()
		if err != nil {
			return "", err
		}
		la, ra := g.nextAlias(), g.nextAlias()
		var conds []string
		for _, p := range pairs {
			conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", la, q(p[0]), ra, q(p[1])))
		}
		return fmt.Sprintf("SELECT * FROM (\n%s\n) %s JOIN (\n%s\n) %s ON %s",
			indent(l), la, indent(r), ra, strings.Join(conds, " AND ")), nil

	case xlm.OpAggregation:
		in, err := g.render(inputs[0])
		if err != nil {
			return "", err
		}
		group := n.GroupBy()
		aggs, err := n.Aggregates()
		if err != nil {
			return "", err
		}
		var sel []string
		for _, gcol := range group {
			sel = append(sel, q(gcol))
		}
		for _, a := range aggs {
			if a.Func == "COUNT" && a.Col == "" {
				sel = append(sel, fmt.Sprintf("COUNT(*) AS %s", q(a.Out)))
				continue
			}
			sel = append(sel, fmt.Sprintf("%s(%s) AS %s", a.Func, q(a.Col), q(a.Out)))
		}
		stmt := fmt.Sprintf("SELECT %s FROM (\n%s\n) %s", strings.Join(sel, ", "), indent(in), g.nextAlias())
		if len(group) > 0 {
			quoted := make([]string, len(group))
			for i, gc := range group {
				quoted[i] = q(gc)
			}
			stmt += " GROUP BY " + strings.Join(quoted, ", ")
		}
		return stmt, nil

	case xlm.OpUnion:
		var parts []string
		for _, in := range inputs {
			s, err := g.render(in)
			if err != nil {
				return "", err
			}
			parts = append(parts, "("+s+")")
		}
		return strings.Join(parts, "\nUNION ALL\n"), nil

	case xlm.OpSort:
		in, err := g.render(inputs[0])
		if err != nil {
			return "", err
		}
		by := n.SortBy()
		quoted := make([]string, len(by))
		for i, c := range by {
			quoted[i] = q(c)
		}
		return fmt.Sprintf("SELECT * FROM (\n%s\n) %s ORDER BY %s",
			indent(in), g.nextAlias(), strings.Join(quoted, ", ")), nil

	case xlm.OpSurrogateKey:
		in, err := g.render(inputs[0])
		if err != nil {
			return "", err
		}
		on := strings.Split(n.Param("on"), ",")
		quoted := make([]string, 0, len(on))
		for _, c := range on {
			if c = strings.TrimSpace(c); c != "" {
				quoted = append(quoted, q(c))
			}
		}
		return fmt.Sprintf("SELECT *, DENSE_RANK() OVER (ORDER BY %s) AS %s FROM (\n%s\n) %s",
			strings.Join(quoted, ", "), q(n.Param("key")), indent(in), g.nextAlias()), nil
	}
	return "", fmt.Errorf("export: cannot render %s node %q as SQL", n.Type, n.Name)
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
