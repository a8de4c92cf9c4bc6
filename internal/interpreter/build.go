package interpreter

import (
	"fmt"
	"sort"
	"strings"

	"quarry/internal/expr"
	"quarry/internal/ontology"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// closureLevel is one level of a dimension's roll-up chain: a concept
// plus the functional path reaching it from the dimension's base
// concept. Paths come from one BFS (ontology.ToOneClosure), so they
// form a consistent tree.
type closureLevel struct {
	concept string
	path    ontology.Path
}

// dimensionChain computes the roll-up chain of a dimension concept:
// every mapped concept functionally reachable from it (through mapped
// concepts only), ordered by distance then name.
func (in *Interpreter) dimensionChain(concept string) []closureLevel {
	cl := in.onto.ToOneClosure(concept)
	var out []closureLevel
	for c, p := range cl {
		mappedPath := true
		for _, s := range p {
			if _, ok := in.mapg.Concept(s.To); !ok {
				mappedPath = false
				break
			}
		}
		if _, ok := in.mapg.Concept(c); !ok || !mappedPath {
			continue
		}
		out = append(out, closureLevel{concept: c, path: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].path) != len(out[j].path) {
			return len(out[i].path) < len(out[j].path)
		}
		return out[i].concept < out[j].concept
	})
	return out
}

// buildMD derives the partial MD schema (a star) for the requirement.
func (in *Interpreter) buildMD(r *xrq.Requirement, fact string, dims []dimGroup) (*xmd.Schema, error) {
	md := &xmd.Schema{Name: "md_" + r.ID}
	f := &xmd.Fact{Name: FactTableName(r), Concept: fact}
	sch := in.ontologySchema()
	for _, m := range r.Measures {
		n, err := m.Expr()
		if err != nil {
			return nil, err
		}
		k, err := expr.Infer(n, sch)
		if err != nil {
			return nil, err
		}
		f.Measures = append(f.Measures, xmd.Measure{
			Name: m.ID, Type: k.String(), Formula: m.Function, Additivity: xmd.AdditivityFlow,
		})
	}
	for _, g := range dims {
		f.Uses = append(f.Uses, xmd.DimensionUse{Dimension: g.concept, Level: g.concept})
		dim, err := in.buildDimension(g)
		if err != nil {
			return nil, err
		}
		md.Dimensions = append(md.Dimensions, dim)
	}
	md.Facts = []*xmd.Fact{f}
	return md, nil
}

// buildDimension derives one dimension: base level at the requested
// concept, complemented with its full roll-up chain.
func (in *Interpreter) buildDimension(g dimGroup) (*xmd.Dimension, error) {
	dim := &xmd.Dimension{Name: g.concept}
	chain := in.dimensionChain(g.concept)
	seenRollup := map[string]bool{}
	for _, lvl := range chain {
		level, err := in.buildLevel(lvl.concept, g)
		if err != nil {
			return nil, err
		}
		dim.Levels = append(dim.Levels, level)
		for _, s := range lvl.path {
			key := s.From + "→" + s.To
			if !seenRollup[key] {
				seenRollup[key] = true
				dim.Rollups = append(dim.Rollups, xmd.Rollup{From: s.From, To: s.To})
			}
		}
	}
	return dim, nil
}

// buildLevel emits one level with all mapped attributes of the
// concept as descriptors.
func (in *Interpreter) buildLevel(concept string, g dimGroup) (*xmd.Level, error) {
	c, ok := in.onto.Concept(concept)
	if !ok {
		return nil, fmt.Errorf("interpreter: unknown concept %q", concept)
	}
	cm, ok := in.mapg.Concept(concept)
	if !ok {
		return nil, fmt.Errorf("interpreter: concept %q is not mapped", concept)
	}
	level := &xmd.Level{Name: concept, Concept: concept}
	attrs := make([]string, 0, len(cm.Attrs))
	for a := range cm.Attrs {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		p, ok := c.Property(a)
		if !ok {
			return nil, fmt.Errorf("interpreter: concept %q lacks property %q", concept, a)
		}
		level.Descriptors = append(level.Descriptors, xmd.Descriptor{
			Name: a, Type: p.Type, Attr: ontology.Qualify(concept, a),
		})
	}
	// Key preference: the requested attribute for the base level, then
	// the first string descriptor, then the first descriptor.
	if concept == g.concept && len(g.attrs) > 0 {
		level.Key = g.attrs[0]
	} else {
		for _, d := range level.Descriptors {
			if d.Type == "string" {
				level.Key = d.Name
				break
			}
		}
		if level.Key == "" && len(level.Descriptors) > 0 {
			level.Key = level.Descriptors[0].Name
		}
	}
	return level, nil
}

func (in *Interpreter) ontologySchema() expr.Schema {
	return func(name string) (expr.Kind, bool) {
		_, p, err := in.onto.ResolveQualified(name)
		if err != nil {
			return expr.KindNull, false
		}
		k, err := expr.ParseKind(p.Type)
		if err != nil {
			return expr.KindNull, false
		}
		return k, true
	}
}

// physicalRename builds the qualified-attribute → physical-column
// rename map for a set of qualified identifiers.
func (in *Interpreter) physicalRename(qualified []string) (map[string]string, error) {
	out := map[string]string{}
	for _, q := range qualified {
		_, _, col, err := in.mapg.Column(q)
		if err != nil {
			return nil, err
		}
		out[q] = col
	}
	return out, nil
}

// flowBuilder accumulates the xLM design with dedup helpers.
type flowBuilder struct {
	in     *Interpreter
	d      *xlm.Design
	hasSrc map[string]bool // concept → datastore+extraction emitted
}

func (b *flowBuilder) ensureSource(concept string) (string, error) {
	if b.hasSrc[concept] {
		return "EXTRACTION_" + concept, nil
	}
	cm, ok := b.in.mapg.Concept(concept)
	if !ok {
		return "", fmt.Errorf("interpreter: concept %q is not mapped", concept)
	}
	store, ok := b.in.cat.Store(cm.Store)
	if !ok {
		return "", fmt.Errorf("interpreter: unknown datastore %q", cm.Store)
	}
	rel, ok := store.Relation(cm.Relation)
	if !ok {
		return "", fmt.Errorf("interpreter: unknown relation %s.%s", cm.Store, cm.Relation)
	}
	fields := make([]xlm.Field, len(rel.Attributes))
	for i, a := range rel.Attributes {
		fields[i] = xlm.Field{Name: a.Name, Type: a.Type}
	}
	ds := &xlm.Node{
		Name: "DATASTORE_" + concept, Type: xlm.OpDatastore, Optype: "TableInput",
		Fields: fields,
		Params: map[string]string{"store": cm.Store, "table": cm.Relation},
	}
	ex := &xlm.Node{Name: "EXTRACTION_" + concept, Type: xlm.OpExtraction, Optype: "Extraction"}
	if err := b.d.AddNode(ds); err != nil {
		return "", err
	}
	if err := b.d.AddNode(ex); err != nil {
		return "", err
	}
	if err := b.d.AddEdge(ds.Name, ex.Name); err != nil {
		return "", err
	}
	b.hasSrc[concept] = true
	return ex.Name, nil
}

// joinOn derives the xLM "on" parameter for a path step: left side is
// the flow containing the step's From columns.
func (b *flowBuilder) joinOn(s ontology.Step) (string, error) {
	pm, ok := b.in.mapg.Property(s.Prop.ID)
	if !ok {
		return "", fmt.Errorf("interpreter: object property %q is not mapped", s.Prop.ID)
	}
	var pairs []string
	for i := range pm.DomainCols {
		if !s.Reverse {
			pairs = append(pairs, pm.DomainCols[i]+"="+pm.RangeCols[i])
		} else {
			pairs = append(pairs, pm.RangeCols[i]+"="+pm.DomainCols[i])
		}
	}
	return strings.Join(pairs, ","), nil
}

// buildETL synthesises the partial ETL flow.
func (in *Interpreter) buildETL(r *xrq.Requirement, fact string, dims []dimGroup, paths map[string]ontology.Path) (*xlm.Design, error) {
	factTable := FactTableName(r)
	d := xlm.NewDesign("etl_" + r.ID)
	d.Metadata["requirement"] = r.ID
	d.Metadata["fact"] = factTable
	b := &flowBuilder{in: in, d: d, hasSrc: map[string]bool{}}

	// ---- Fact pipeline: extraction of the fact concept, joins along
	// the union of the functional paths (a tree), slicer selections,
	// measure derivations, aggregation, load.
	cur, err := b.ensureSource(fact)
	if err != nil {
		return nil, err
	}
	joined := map[string]bool{fact: true}
	// Deterministic path order: sorted by target concept.
	targets := make([]string, 0, len(paths))
	for c := range paths {
		targets = append(targets, c)
	}
	sort.Strings(targets)
	for _, target := range targets {
		for _, step := range paths[target] {
			if joined[step.To] {
				continue
			}
			right, err := b.ensureSource(step.To)
			if err != nil {
				return nil, err
			}
			on, err := b.joinOn(step)
			if err != nil {
				return nil, err
			}
			jn := &xlm.Node{
				Name: "JOIN_" + step.From + "_" + step.To, Type: xlm.OpJoin, Optype: "MergeJoin",
				Params: map[string]string{"on": on},
			}
			if err := d.AddNode(jn); err != nil {
				return nil, err
			}
			if err := d.AddEdge(cur, jn.Name); err != nil {
				return nil, err
			}
			if err := d.AddEdge(right, jn.Name); err != nil {
				return nil, err
			}
			cur = jn.Name
			joined[step.To] = true
		}
	}
	// Slicers.
	for _, s := range r.Slicers {
		_, p, err := in.onto.ResolveQualified(s.Concept)
		if err != nil {
			return nil, err
		}
		pred, err := s.Predicate(p.Type)
		if err != nil {
			return nil, err
		}
		ren, err := in.physicalRename([]string{s.Concept})
		if err != nil {
			return nil, err
		}
		phys := expr.Rename(pred, ren)
		_, attr, _ := ontology.SplitQualified(s.Concept)
		sel := &xlm.Node{
			Name: "SELECTION_" + attr, Type: xlm.OpSelection, Optype: "FilterRows",
			Params: map[string]string{"predicate": phys.String()},
		}
		if err := d.AddNode(sel); err != nil {
			return nil, err
		}
		if err := d.AddEdge(cur, sel.Name); err != nil {
			return nil, err
		}
		cur = sel.Name
	}
	// Measures.
	for _, m := range r.Measures {
		n, err := m.Expr()
		if err != nil {
			return nil, err
		}
		ren, err := in.physicalRename(expr.Idents(n))
		if err != nil {
			return nil, err
		}
		phys := expr.Rename(n, ren)
		fn := &xlm.Node{
			Name: "FUNCTION_" + m.ID, Type: xlm.OpFunction, Optype: "Calculator",
			Params: map[string]string{"name": m.ID, "expr": phys.String()},
		}
		if err := d.AddNode(fn); err != nil {
			return nil, err
		}
		if err := d.AddEdge(cur, fn.Name); err != nil {
			return nil, err
		}
		cur = fn.Name
	}
	// Aggregation at the base grain of the requested dimensions.
	var groupCols []string
	for _, g := range dims {
		cm, ok := in.mapg.Concept(g.concept)
		if !ok {
			return nil, fmt.Errorf("interpreter: concept %q is not mapped", g.concept)
		}
		groupCols = append(groupCols, cm.Key...)
	}
	var aggSpecs []string
	for _, m := range r.Measures {
		fn := measureAggFunc(r, m.ID)
		aggSpecs = append(aggSpecs, fmt.Sprintf("%s:%s:%s", m.ID, fn, m.ID))
	}
	agg := &xlm.Node{
		Name: "AGGREGATION_" + factTable, Type: xlm.OpAggregation, Optype: "GroupBy",
		Params: map[string]string{
			"group":      strings.Join(groupCols, ","),
			"aggregates": strings.Join(aggSpecs, ";"),
		},
	}
	if err := d.AddNode(agg); err != nil {
		return nil, err
	}
	if err := d.AddEdge(cur, agg.Name); err != nil {
		return nil, err
	}
	// Deployment metadata on the loader: primary key (the grouping
	// columns) and foreign keys into the dimension tables.
	var refs []string
	for _, g := range dims {
		cm, _ := in.mapg.Concept(g.concept)
		for _, k := range cm.Key {
			refs = append(refs, fmt.Sprintf("%s=%s.%s", k, DimTableName(g.concept), k))
		}
	}
	loader := &xlm.Node{
		Name: "LOADER_" + factTable, Type: xlm.OpLoader, Optype: "TableOutput",
		Params: map[string]string{
			"table": factTable,
			"keys":  strings.Join(groupCols, ","),
			"refs":  strings.Join(refs, ","),
		},
	}
	if err := d.AddNode(loader); err != nil {
		return nil, err
	}
	if err := d.AddEdge(agg.Name, loader.Name); err != nil {
		return nil, err
	}

	// ---- Dimension pipelines: denormalised load of each dimension
	// table from the dimension concept's roll-up chain.
	for _, g := range dims {
		if err := in.buildDimBranch(b, g); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// buildDimBranch emits the load pipeline of one dimension table.
func (in *Interpreter) buildDimBranch(b *flowBuilder, g dimGroup) error {
	cur, err := b.ensureSource(g.concept)
	if err != nil {
		return err
	}
	chain := in.dimensionChain(g.concept)
	joined := map[string]bool{g.concept: true}
	for _, lvl := range chain {
		for _, step := range lvl.path {
			if joined[step.To] {
				continue
			}
			right, err := b.ensureSource(step.To)
			if err != nil {
				return err
			}
			on, err := b.joinOn(step)
			if err != nil {
				return err
			}
			jn := &xlm.Node{
				Name: "JOINDIM_" + g.concept + "_" + step.From + "_" + step.To,
				Type: xlm.OpJoin, Optype: "MergeJoin",
				Params: map[string]string{"on": on},
			}
			if err := b.d.AddNode(jn); err != nil {
				return err
			}
			if err := b.d.AddEdge(cur, jn.Name); err != nil {
				return err
			}
			if err := b.d.AddEdge(right, jn.Name); err != nil {
				return err
			}
			cur = jn.Name
			joined[step.To] = true
		}
	}
	// Project: base keys + every descriptor of every level.
	cmBase, _ := in.mapg.Concept(g.concept)
	var cols []string
	seen := map[string]bool{}
	for _, k := range cmBase.Key {
		if !seen[k] {
			seen[k] = true
			cols = append(cols, k)
		}
	}
	for _, lvl := range chain {
		cm, _ := in.mapg.Concept(lvl.concept)
		attrs := make([]string, 0, len(cm.Attrs))
		for a := range cm.Attrs {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			col := cm.Attrs[a]
			if !seen[col] {
				seen[col] = true
				cols = append(cols, col)
			}
		}
	}
	table := DimTableName(g.concept)
	proj := &xlm.Node{
		Name: "PROJECTION_" + table, Type: xlm.OpProjection, Optype: "SelectValues",
		Params: map[string]string{"columns": strings.Join(cols, ",")},
	}
	if err := b.d.AddNode(proj); err != nil {
		return err
	}
	if err := b.d.AddEdge(cur, proj.Name); err != nil {
		return err
	}
	loader := &xlm.Node{
		Name: "LOADER_" + table, Type: xlm.OpLoader, Optype: "TableOutput",
		Params: map[string]string{
			"table": table,
			"keys":  strings.Join(cmBase.Key, ","),
		},
	}
	if err := b.d.AddNode(loader); err != nil {
		return err
	}
	return b.d.AddEdge(proj.Name, loader.Name)
}

// measureAggFunc picks the aggregation function for the fact-grain
// GROUP BY: the first declared aggregation of the measure, or SUM.
func measureAggFunc(r *xrq.Requirement, measure string) string {
	for _, a := range r.Aggs {
		if a.Measure == measure {
			return string(a.Function)
		}
	}
	return string(xrq.AggSum)
}
