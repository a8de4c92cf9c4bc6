package export

import (
	"fmt"
	"strings"

	"quarry/internal/xlm"
)

// dotShape picks a node shape per operation kind.
func dotShape(op xlm.OpType) string {
	switch op {
	case xlm.OpDatastore:
		return "cylinder"
	case xlm.OpLoader:
		return "folder"
	case xlm.OpJoin:
		return "diamond"
	case xlm.OpAggregation:
		return "hexagon"
	case xlm.OpSelection:
		return "trapezium"
	default:
		return "box"
	}
}

func dotEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// toDot renders an xLM design as a Graphviz digraph for visual
// inspection of unified flows — the textual counterpart of the flow
// graphs in the paper's Figure 3.
func toDot(d *xlm.Design) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", d.Name)
	b.WriteString("  rankdir=LR;\n  node [fontsize=10];\n")
	for _, n := range d.Nodes() {
		label := string(n.Type) + "\\n" + n.Name
		switch n.Type {
		case xlm.OpSelection:
			label += "\\n" + dotEscape(n.Param("predicate"))
		case xlm.OpFunction:
			label += "\\n" + dotEscape(n.Param("name")+" = "+n.Param("expr"))
		case xlm.OpJoin:
			label += "\\n" + dotEscape(n.Param("on"))
		case xlm.OpAggregation:
			label += "\\nby " + dotEscape(n.Param("group"))
		case xlm.OpDatastore, xlm.OpLoader:
			label += "\\n" + dotEscape(n.Param("table"))
		}
		fmt.Fprintf(&b, "  %q [label=\"%s\", shape=%s];\n", n.Name, label, dotShape(n.Type))
	}
	for _, e := range d.Edges() {
		style := ""
		if !e.Enabled {
			style = " [style=dashed]"
		}
		fmt.Fprintf(&b, "  %q -> %q%s;\n", e.From, e.To, style)
	}
	b.WriteString("}\n")
	return b.String(), nil
}
