// Package xlm implements Quarry's xLM format [12]: the logical,
// platform-independent encoding of an ETL process as a typed DAG of
// data-flow operations. Every component that touches ETL — the
// Requirements Interpreter (synthesis), the ETL Process Integrator
// (consolidation), the cost models, and the Design Deployer (engine
// compilation, Pentaho PDI export) — exchanges xLM designs.
//
// A design consists of named nodes (operations with an output schema
// and typed parameters) and directed edges. The package provides
// structural validation, schema propagation (each operation's output
// schema is derivable from its inputs and parameters), topological
// utilities and canonical operation signatures used for reuse
// detection during integration.
package xlm

import (
	"fmt"
	"sort"
	"strings"

	"quarry/internal/expr"
)

// OpType enumerates the logical operation kinds of xLM.
type OpType string

// Operation kinds.
const (
	// OpDatastore is a source table (no inputs); params: "store",
	// "table".
	OpDatastore OpType = "Datastore"
	// OpExtraction wraps a datastore scan into the flow (1 input).
	OpExtraction OpType = "Extraction"
	// OpSelection filters rows; params: "predicate".
	OpSelection OpType = "Selection"
	// OpProjection projects/renames columns; params: "columns" =
	// "out1,out2=in2,...".
	OpProjection OpType = "Projection"
	// OpJoin equi-joins two inputs; params: "on" = "l1=r1,l2=r2".
	OpJoin OpType = "Join"
	// OpAggregation groups and aggregates; params: "group" =
	// "c1,c2", "aggregates" = "out:FUNC:col;...".
	OpAggregation OpType = "Aggregation"
	// OpFunction derives a new attribute; params: "name", "expr".
	OpFunction OpType = "Function"
	// OpUnion concatenates union-compatible inputs (≥2 inputs).
	OpUnion OpType = "Union"
	// OpSort orders rows; params: "by" = "c1,c2".
	OpSort OpType = "Sort"
	// OpSurrogateKey assigns a dense integer key per distinct natural
	// key; params: "key" (new column), "on" = "c1,c2".
	OpSurrogateKey OpType = "SurrogateKey"
	// OpLoader replaces a target table with its rows (no outputs);
	// params: "table". A design has one loader per table.
	OpLoader OpType = "Loader"
)

// knownOps lists all operation kinds for validation.
var knownOps = map[OpType]bool{
	OpDatastore: true, OpExtraction: true, OpSelection: true,
	OpProjection: true, OpJoin: true, OpAggregation: true,
	OpFunction: true, OpUnion: true, OpSort: true,
	OpSurrogateKey: true, OpLoader: true,
}

// Field is a named, typed attribute of an operation's output schema.
type Field struct {
	Name string
	Type string // "int", "float", "string", "bool"
}

// Node is one operation of the flow.
type Node struct {
	Name string
	Type OpType
	// Optype is the platform-level operator hint the paper shows
	// (e.g. "TableInput" for a Datastore); informational.
	Optype string
	// Fields is the operation's output schema. It can be left empty
	// everywhere except Datastore nodes and recomputed with
	// Design.InferSchemas.
	Fields []Field
	Params map[string]string
}

// Param returns a parameter value ("" when absent).
func (n *Node) Param(key string) string {
	if n.Params == nil {
		return ""
	}
	return n.Params[key]
}

// Field looks an output field up by name.
func (n *Node) Field(name string) (Field, bool) {
	for _, f := range n.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// FieldNames returns the output schema's column names in order.
func (n *Node) FieldNames() []string {
	out := make([]string, len(n.Fields))
	for i, f := range n.Fields {
		out[i] = f.Name
	}
	return out
}

// Schema adapts the node's output schema to an expr.Schema.
func (n *Node) Schema() expr.Schema {
	return func(name string) (expr.Kind, bool) {
		f, ok := n.Field(name)
		if !ok {
			return expr.KindNull, false
		}
		k, err := expr.ParseKind(f.Type)
		if err != nil {
			return expr.KindNull, false
		}
		return k, true
	}
}

// AggSpec is one parsed aggregate of an Aggregation node.
type AggSpec struct {
	Out  string // output column
	Func string // SUM/AVG/MIN/MAX/COUNT
	Col  string // input column ("" only for COUNT)
}

// Predicate parses a Selection node's predicate parameter.
func (n *Node) Predicate() (expr.Node, error) {
	src := n.Param("predicate")
	if src == "" {
		return nil, fmt.Errorf("xlm: node %q has no predicate", n.Name)
	}
	p, err := expr.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("xlm: node %q: %w", n.Name, err)
	}
	return p, nil
}

// JoinPairs parses a Join node's "on" parameter into (left, right)
// column pairs.
func (n *Node) JoinPairs() ([][2]string, error) {
	raw := n.Param("on")
	if raw == "" {
		return nil, fmt.Errorf("xlm: join %q has no 'on' parameter", n.Name)
	}
	var out [][2]string
	for _, part := range strings.Split(raw, ",") {
		lr := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(lr) != 2 || lr[0] == "" || lr[1] == "" {
			return nil, fmt.Errorf("xlm: join %q has malformed pair %q", n.Name, part)
		}
		out = append(out, [2]string{strings.TrimSpace(lr[0]), strings.TrimSpace(lr[1])})
	}
	return out, nil
}

// GroupBy parses an Aggregation node's grouping columns (possibly
// empty: a global aggregate).
func (n *Node) GroupBy() []string {
	raw := strings.TrimSpace(n.Param("group"))
	if raw == "" {
		return nil
	}
	parts := strings.Split(raw, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// Aggregates parses an Aggregation node's "aggregates" parameter.
func (n *Node) Aggregates() ([]AggSpec, error) {
	raw := strings.TrimSpace(n.Param("aggregates"))
	if raw == "" {
		return nil, fmt.Errorf("xlm: aggregation %q has no aggregates", n.Name)
	}
	var out []AggSpec
	for _, part := range strings.Split(raw, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		bits := strings.Split(part, ":")
		if len(bits) != 3 {
			return nil, fmt.Errorf("xlm: aggregation %q has malformed aggregate %q", n.Name, part)
		}
		spec := AggSpec{Out: strings.TrimSpace(bits[0]), Func: strings.ToUpper(strings.TrimSpace(bits[1])), Col: strings.TrimSpace(bits[2])}
		switch spec.Func {
		case "SUM", "AVG", "MIN", "MAX", "COUNT":
		default:
			return nil, fmt.Errorf("xlm: aggregation %q uses unknown function %q", n.Name, spec.Func)
		}
		if spec.Out == "" {
			return nil, fmt.Errorf("xlm: aggregation %q has unnamed output in %q", n.Name, part)
		}
		if spec.Col == "" && spec.Func != "COUNT" {
			return nil, fmt.Errorf("xlm: aggregation %q: %s needs an input column", n.Name, spec.Func)
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("xlm: aggregation %q has no aggregates", n.Name)
	}
	return out, nil
}

// ProjectionSpec is one parsed output column of a Projection.
type ProjectionSpec struct {
	Out string
	In  string
}

// Projections parses a Projection node's "columns" parameter:
// "out" keeps a column, "out=in" renames in→out.
func (n *Node) Projections() ([]ProjectionSpec, error) {
	raw := strings.TrimSpace(n.Param("columns"))
	if raw == "" {
		return nil, fmt.Errorf("xlm: projection %q has no columns", n.Name)
	}
	var out []ProjectionSpec
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if i := strings.IndexByte(part, '='); i >= 0 {
			o, in := strings.TrimSpace(part[:i]), strings.TrimSpace(part[i+1:])
			if o == "" || in == "" {
				return nil, fmt.Errorf("xlm: projection %q has malformed column %q", n.Name, part)
			}
			out = append(out, ProjectionSpec{Out: o, In: in})
		} else {
			out = append(out, ProjectionSpec{Out: part, In: part})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("xlm: projection %q has no columns", n.Name)
	}
	return out, nil
}

// SortBy parses a Sort node's ordering columns.
func (n *Node) SortBy() []string {
	raw := strings.TrimSpace(n.Param("by"))
	if raw == "" {
		return nil
	}
	parts := strings.Split(raw, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// Signature returns a canonical description of the operation —
// type plus normalised parameters, excluding the node name — used by
// the ETL integrator to detect equivalent operations across flows.
func (n *Node) Signature() string {
	var b strings.Builder
	b.WriteString(string(n.Type))
	keys := make([]string, 0, len(n.Params))
	for k := range n.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := n.Params[k]
		// Normalise expression-bearing parameters through the parser
		// so textual variations compare equal.
		if k == "predicate" || k == "expr" {
			if p, err := expr.Parse(v); err == nil {
				v = p.String()
			}
		}
		b.WriteString("|")
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(v)
	}
	return b.String()
}

// Edge is a directed data-flow edge.
type Edge struct {
	From string
	To   string
}

// Design is an xLM document: a named DAG with metadata.
type Design struct {
	Name     string
	Metadata map[string]string
	nodes    []*Node
	edges    []Edge
	index    map[string]*Node
}

// NewDesign creates an empty design.
func NewDesign(name string) *Design {
	return &Design{Name: name, Metadata: map[string]string{}, index: map[string]*Node{}}
}

// AddNode inserts an operation; names must be unique.
func (d *Design) AddNode(n *Node) error {
	if n.Name == "" {
		return fmt.Errorf("xlm: unnamed node")
	}
	if !knownOps[n.Type] {
		return fmt.Errorf("xlm: node %q has unknown type %q", n.Name, n.Type)
	}
	if _, dup := d.index[n.Name]; dup {
		return fmt.Errorf("xlm: duplicate node %q", n.Name)
	}
	if n.Params == nil {
		n.Params = map[string]string{}
	}
	d.nodes = append(d.nodes, n)
	d.index[n.Name] = n
	return nil
}

// AddEdge inserts a directed edge between existing nodes.
func (d *Design) AddEdge(from, to string) error {
	if _, ok := d.index[from]; !ok {
		return fmt.Errorf("xlm: edge from unknown node %q", from)
	}
	if _, ok := d.index[to]; !ok {
		return fmt.Errorf("xlm: edge to unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("xlm: self edge on %q", from)
	}
	for _, e := range d.edges {
		if e.From == from && e.To == to {
			return fmt.Errorf("xlm: duplicate edge %s→%s", from, to)
		}
	}
	d.edges = append(d.edges, Edge{From: from, To: to})
	return nil
}

// RemoveEdgeBetween deletes the from→to edge if present; the design
// integrator uses it when reordering operations.
func (d *Design) RemoveEdgeBetween(from, to string) {
	edges := d.edges[:0]
	for _, e := range d.edges {
		if e.From == from && e.To == to {
			continue
		}
		edges = append(edges, e)
	}
	d.edges = edges
}

// Node looks an operation up by name.
func (d *Design) Node(name string) (*Node, bool) {
	n, ok := d.index[name]
	return n, ok
}

// Nodes returns operations in insertion order.
func (d *Design) Nodes() []*Node {
	return append([]*Node(nil), d.nodes...)
}

// Edges returns edges in insertion order.
func (d *Design) Edges() []Edge {
	return append([]Edge(nil), d.edges...)
}

// Inputs returns the upstream operations of a node, in edge insertion
// order (join semantics depend on it: first edge is the left input).
func (d *Design) Inputs(name string) []*Node {
	var out []*Node
	for _, e := range d.edges {
		if e.To == name {
			out = append(out, d.index[e.From])
		}
	}
	return out
}

// Outputs returns the downstream operations of a node.
func (d *Design) Outputs(name string) []*Node {
	var out []*Node
	for _, e := range d.edges {
		if e.From == name {
			out = append(out, d.index[e.To])
		}
	}
	return out
}

// Sources returns nodes without inputs (normally Datastores).
func (d *Design) Sources() []*Node {
	hasIn := map[string]bool{}
	for _, e := range d.edges {
		hasIn[e.To] = true
	}
	var out []*Node
	for _, n := range d.nodes {
		if !hasIn[n.Name] {
			out = append(out, n)
		}
	}
	return out
}

// Sinks returns nodes without outputs (normally Loaders).
func (d *Design) Sinks() []*Node {
	hasOut := map[string]bool{}
	for _, e := range d.edges {
		hasOut[e.From] = true
	}
	var out []*Node
	for _, n := range d.nodes {
		if !hasOut[n.Name] {
			out = append(out, n)
		}
	}
	return out
}

// TopoSort returns the operations in a topological order, or an error
// when the graph has a cycle. The order is deterministic (stable with
// respect to insertion order).
func (d *Design) TopoSort() ([]*Node, error) {
	indeg := map[string]int{}
	for _, n := range d.nodes {
		indeg[n.Name] = 0
	}
	for _, e := range d.edges {
		indeg[e.To]++
	}
	var queue []*Node
	for _, n := range d.nodes {
		if indeg[n.Name] == 0 {
			queue = append(queue, n)
		}
	}
	var out []*Node
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, e := range d.edges {
			if e.From != cur.Name {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, d.index[e.To])
			}
		}
	}
	if len(out) != len(d.nodes) {
		return nil, fmt.Errorf("xlm: design %q has a cycle", d.Name)
	}
	return out, nil
}

// Clone returns a deep copy of the design.
func (d *Design) Clone() *Design {
	cp := NewDesign(d.Name)
	for k, v := range d.Metadata {
		cp.Metadata[k] = v
	}
	for _, n := range d.nodes {
		nn := &Node{Name: n.Name, Type: n.Type, Optype: n.Optype}
		nn.Fields = append([]Field(nil), n.Fields...)
		nn.Params = map[string]string{}
		for k, v := range n.Params {
			nn.Params[k] = v
		}
		cp.nodes = append(cp.nodes, nn)
		cp.index[nn.Name] = nn
	}
	cp.edges = append([]Edge(nil), d.edges...)
	return cp
}
