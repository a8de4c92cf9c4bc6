package olap

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/sqlgen"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// The planner resolves a CubeQuery into a physical star plan shared by
// both executors: which dimension tables to join (in the fact's
// foreign-key order), which columns each join contributes, and the
// columns the query actually reads — group keys, aggregate inputs,
// filter identifiers, the dice carat — with their positions in the
// fast path's rows. Because both executors consume the same plan —
// same join order, same build projections, same filter placement
// (after all joins), same aggregation input order — their results are
// byte-identical by construction.

// starJoin is one fact ⋈ dimension hash join of the plan.
type starJoin struct {
	def *sqlgen.TableDef
	// fkCol is the fact-side key, refCol the dimension-side key.
	fkCol, refCol string
	// keyAlias renames the dimension key in the joined layout so it
	// never collides with the fact column of the same name.
	keyAlias string
	// buildCols are the dimension columns the join contributes, in
	// dimension column order: exactly the columns of this dimension
	// the query reads.
	buildCols []string
	// preds are the filter conjuncts on this dimension's buildCols,
	// pushed into the build-side scan as zone-map prune predicates.
	// Pruned dimension rows only suppress joined rows the filter would
	// reject anyway (the join is inner, and a conjunct false or NULL
	// on the dimension's values makes the whole conjunction fail), so
	// results are unchanged. predKey fingerprints them for the
	// dimension build cache.
	preds   []storage.PrunePredicate
	predKey string
}

// dicePlan is the resolved diamond dice: the folded cells' dice, whose
// Pos are positions in the group-by, and for the oracle, which dices
// its joined detail rows, the positions caratIdx and colIdx there.
type dicePlan struct {
	engine.Dice
	caratIdx int   // detail row position; -1 for COUNT
	colIdx   []int // detail row positions of the diced columns
}

// planCol locates one column the query reads.
type planCol struct {
	join int // index into starPlan.joins; -1 for a fact column
	col  int // index into the join's buildCols, or into fact.Columns
}

// starPlan is the resolved physical plan of one cube query.
type starPlan struct {
	fact  *sqlgen.TableDef
	joins []*starJoin
	// cols is the needed-column set: the fact columns the query reads
	// (in fact order), then every join's buildCols (in join order).
	// The fast path's rows hold exactly these — never the full joined
	// layout, whose unread fact columns and key aliases only the
	// oracle materialises. index, groupIdx and aggIdx are positions in
	// such a row. Join keys are fact columns, read off the fact row
	// itself, so they need no place in it.
	cols     []planCol
	index    map[string]int // name → position in cols
	groupBy  []string       // resolved group columns (incl. roll-up keys)
	groupIdx []int
	// aggs are the fold's aggregates: the query's measures in output
	// order, then a dice's hidden carat ones (engine.Dice.CaratFuncs),
	// over the SUM carat's column or, for a COUNT carat, none.
	aggs    []xlm.AggSpec
	aggIdx  []int // -1 for COUNT(*)
	visible int   // the leading aggs that are the query's measures
	filter  expr.Node
	dice    *dicePlan
	tables  []string // fact + joined dimension table names
	// factPreds are the filter conjuncts on fact columns, pushed into
	// the fact scan as zone-map prune predicates. The full filter is
	// still evaluated after the joins — pushdown only skips pages no
	// qualifying row can live in.
	factPreds []storage.PrunePredicate
}

// resolveGroupBy expands the query's explicit group-by columns with
// the key descriptors of the requested roll-up levels (dimensions in
// name order, for determinism), deduplicating.
func (e *Engine) resolveGroupBy(q CubeQuery) ([]string, error) {
	out := append([]string(nil), q.GroupBy...)
	seen := map[string]bool{}
	for _, g := range out {
		seen[g] = true
	}
	dims := make([]string, 0, len(q.RollUp))
	for d := range q.RollUp {
		dims = append(dims, d)
	}
	sort.Strings(dims)
	fact, ok := e.md.Fact(q.Fact)
	for _, dim := range dims {
		lvlName := q.RollUp[dim]
		d, okd := e.md.Dimension(dim)
		if !okd {
			return nil, fmt.Errorf("olap: unknown dimension %q in roll-up", dim)
		}
		if ok && !fact.UsesDimension(dim) {
			return nil, fmt.Errorf("olap: fact %q does not use dimension %q", q.Fact, dim)
		}
		lvl, okl := d.Level(lvlName)
		if !okl {
			return nil, fmt.Errorf("olap: dimension %q has no level %q", dim, lvlName)
		}
		// The level must be reachable from a base level of the
		// hierarchy (aggregating below the base grain is impossible).
		reachable := false
		for _, b := range d.BaseLevels() {
			if d.RollsUpTo(b.Name, lvlName) {
				reachable = true
				break
			}
		}
		if !reachable {
			return nil, fmt.Errorf("olap: level %q is not reachable from the base of dimension %q", lvlName, dim)
		}
		if lvl.Key == "" {
			return nil, fmt.Errorf("olap: level %q of dimension %q has no key descriptor", lvlName, dim)
		}
		if !seen[lvl.Key] {
			seen[lvl.Key] = true
			out = append(out, lvl.Key)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("olap: query needs at least one group-by column or roll-up level")
	}
	return out, nil
}

// plan resolves a cube query against the deployed schema.
func (e *Engine) plan(q CubeQuery) (*starPlan, error) {
	if len(q.Measures) == 0 {
		return nil, fmt.Errorf("olap: query needs at least one measure")
	}
	fact, err := e.tableOf(q.Fact)
	if err != nil {
		return nil, err
	}
	groupBy, err := e.resolveGroupBy(q)
	if err != nil {
		return nil, err
	}
	p := &starPlan{fact: fact, groupBy: groupBy, tables: []string{fact.Name}}
	// Columns the joined layout must provide. The result's column names
	// must be distinct, and a measure's must survive the star-flow
	// oracle's "out:FUNC:col;…" aggregate list, so that both executors
	// answer the same columns.
	needed := map[string]bool{}
	for i, g := range groupBy {
		if slices.Contains(groupBy[:i], g) {
			return nil, fmt.Errorf("olap: group-by column %q repeats", g)
		}
		needed[g] = true
	}
	for i, m := range q.Measures {
		if m.Out == "" || strings.TrimSpace(m.Out) != m.Out || strings.ContainsAny(m.Out, ":;") {
			return nil, fmt.Errorf("olap: measure output name %q is empty, padded or holds ':' or ';'", m.Out)
		}
		if slices.Contains(groupBy, m.Out) || slices.ContainsFunc(q.Measures[:i], func(o MeasureSpec) bool { return o.Out == m.Out }) {
			return nil, fmt.Errorf("olap: measure output name %q is already a result column", m.Out)
		}
		fn := strings.ToUpper(m.Func)
		switch fn {
		case "SUM", "AVG", "MIN", "MAX", "COUNT":
		default:
			return nil, fmt.Errorf("olap: unknown aggregate %q", m.Func)
		}
		if m.Col == "" && fn != "COUNT" {
			return nil, fmt.Errorf("olap: aggregate %s needs a column", fn)
		}
		if m.Col != "" {
			needed[m.Col] = true
		}
		p.aggs = append(p.aggs, xlm.AggSpec{Out: m.Out, Func: fn, Col: m.Col})
	}
	p.visible = len(p.aggs)
	if q.Filter != "" {
		p.filter, err = expr.Parse(q.Filter)
		if err != nil {
			return nil, fmt.Errorf("olap: filter: %w", err)
		}
		for _, id := range expr.Idents(p.filter) {
			needed[id] = true
		}
	}
	if q.Dice != nil {
		switch strings.ToUpper(q.Dice.Func) {
		case "COUNT":
			if q.Dice.Col != "" {
				return nil, fmt.Errorf("olap: dice COUNT carat takes no column")
			}
		case "SUM":
			if q.Dice.Col == "" {
				return nil, fmt.Errorf("olap: dice SUM carat needs a column")
			}
			needed[q.Dice.Col] = true
		default:
			return nil, fmt.Errorf("olap: dice carat must be COUNT or SUM, got %q", q.Dice.Func)
		}
		if len(q.Dice.Thresholds) == 0 {
			return nil, fmt.Errorf("olap: dice needs at least one threshold")
		}
		d := &dicePlan{Dice: engine.Dice{Carat: q.Dice.Col}}
		cols := make([]string, 0, len(q.Dice.Thresholds))
		for c := range q.Dice.Thresholds {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			pos := slices.Index(groupBy, c)
			if pos < 0 {
				return nil, fmt.Errorf("olap: dice threshold column %q is not grouped by", c)
			}
			d.Pos = append(d.Pos, pos)
			d.Thresholds = append(d.Thresholds, q.Dice.Thresholds[c])
		}
		p.dice = d
		for _, fn := range d.CaratFuncs() {
			p.aggs = append(p.aggs, xlm.AggSpec{Func: fn, Col: d.Carat})
		}
	}
	// layout is the oracle's joined row (fact columns, then per join the
	// key alias and the build columns); the fast path's narrower row
	// (p.cols) is resolved beside it. Join every referenced dimension
	// table, in foreign-key order.
	var layout []string
	available := map[string]bool{}
	p.index = map[string]int{}
	factCol := map[string]bool{}
	for i, c := range fact.Columns {
		layout = append(layout, c.Name)
		factCol[c.Name] = true
		if needed[c.Name] {
			p.index[c.Name] = len(p.cols)
			p.cols = append(p.cols, planCol{join: -1, col: i})
		}
		available[c.Name] = true
	}
	joined := map[string]bool{}
	for _, fk := range fact.ForeignKeys {
		if joined[fk.RefTable] {
			continue
		}
		dim, err := e.tableOf(fk.RefTable)
		if err != nil {
			return nil, err
		}
		usesDim := false
		for _, c := range dim.Columns {
			if needed[c.Name] && !available[c.Name] {
				usesDim = true
			}
		}
		if !usesDim {
			continue
		}
		joined[fk.RefTable] = true
		j := &starJoin{
			def:      dim,
			fkCol:    fk.Column,
			refCol:   fk.RefColumn,
			keyAlias: "__key_" + fk.RefTable,
		}
		if !factCol[j.fkCol] {
			return nil, fmt.Errorf("olap: fact %q lacks foreign-key column %q", fact.Name, j.fkCol)
		}
		layout = append(layout, j.keyAlias)
		for _, c := range dim.Columns {
			if needed[c.Name] && !available[c.Name] {
				p.index[c.Name] = len(p.cols)
				p.cols = append(p.cols, planCol{join: len(p.joins), col: len(j.buildCols)})
				j.buildCols = append(j.buildCols, c.Name)
				layout = append(layout, c.Name)
				available[c.Name] = true
			}
		}
		p.joins = append(p.joins, j)
		p.tables = append(p.tables, dim.Name)
	}
	// Every needed column must now be available.
	var missing []string
	for c := range needed {
		if !available[c] {
			missing = append(missing, c)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("olap: columns %v not reachable from fact %q", missing, q.Fact)
	}
	p.groupIdx = make([]int, len(p.groupBy))
	for i, g := range p.groupBy {
		p.groupIdx[i] = p.index[g]
	}
	p.aggIdx = make([]int, len(p.aggs))
	for i, a := range p.aggs {
		if a.Col == "" {
			p.aggIdx[i] = -1
			continue
		}
		p.aggIdx[i] = p.index[a.Col]
	}
	if d := p.dice; d != nil {
		// Layout names are unique by construction.
		d.caratIdx = -1
		if d.Carat != "" {
			d.caratIdx = slices.Index(layout, d.Carat)
		}
		for _, pos := range d.Pos {
			d.colIdx = append(d.colIdx, slices.Index(layout, p.groupBy[pos]))
		}
	}
	// Column types by name, scoped to the tables that physically hold
	// each layout column (fact columns first, mirroring p.index).
	colType := map[string]string{}
	for _, c := range fact.Columns {
		colType[c.Name] = c.Type
	}
	owner := map[string]*starJoin{}
	for _, j := range p.joins {
		for _, bc := range j.buildCols {
			owner[bc] = j
			for _, c := range j.def.Columns {
				if c.Name == bc {
					if _, dup := colType[bc]; !dup {
						colType[bc] = c.Type
					}
					break
				}
			}
		}
	}
	// SUM and AVG fold numbers, which is all an int or float column
	// holds (besides NULL). Checked here, a non-numeric input fails the
	// query whichever rows reach the fold: the fast path folds cells a
	// dice then prunes, the oracle only the survivors.
	numeric := func(col string) bool { return colType[col] == "int" || colType[col] == "float" }
	for _, a := range p.aggs[:p.visible] {
		if (a.Func == "SUM" || a.Func == "AVG") && !numeric(a.Col) {
			return nil, fmt.Errorf("olap: %s over non-numeric column %q (%s)", a.Func, a.Col, colType[a.Col])
		}
	}
	if p.dice != nil && p.dice.Carat != "" && !numeric(p.dice.Carat) {
		return nil, fmt.Errorf("olap: dice SUM carat over non-numeric column %q (%s)", p.dice.Carat, colType[p.dice.Carat])
	}
	if p.filter != nil {
		// Type-check the filter here, before any row is read: the oracle's
		// flow validation rejects an ill-typed predicate outright, while
		// the evaluator only meets it on a joined row — and an empty
		// dimension leaves it none.
		sch := func(name string) (expr.Kind, bool) {
			k, err := expr.ParseKind(colType[name])
			return k, err == nil
		}
		if err := expr.CheckPredicate(p.filter, sch); err != nil {
			return nil, fmt.Errorf("olap: filter: %w", err)
		}
		// Filter pushdown: conjuncts of the shape `col OP literal` become
		// prune predicates on the table that physically holds the column.
		for _, conj := range expr.Conjuncts(p.filter) {
			col, op, lit, ok := expr.Comparison(conj)
			if !ok || !pushable(op, colType[col], lit) {
				continue
			}
			pp := storage.PrunePredicate{Col: col, Op: op, Val: lit}
			if factCol[col] {
				p.factPreds = append(p.factPreds, pp)
			} else if j := owner[col]; j != nil {
				j.preds = append(j.preds, pp)
			}
		}
		for _, j := range p.joins {
			j.predKey = predFingerprint(j.preds)
		}
	}
	return p, nil
}

// pushable reports whether a `col OP literal` conjunct is safe to
// evaluate against zone maps. Equality tests never error at
// evaluation time; ordering comparisons are pushed only when the
// literal's kind is comparable with the column's (numeric with
// numeric, otherwise the same kind) — a mismatched ordering
// comparison errors at evaluation, and pruning must not mask that
// error by skipping the pages that would raise it. A NULL literal
// makes every operator evaluate to NULL (no error), so it is always
// safe.
func pushable(op, colType string, lit expr.Value) bool {
	if colType == "" {
		return false
	}
	if lit.IsNull() || op == "=" || op == "!=" {
		return true
	}
	k, err := expr.ParseKind(colType)
	if err != nil {
		return false
	}
	switch k {
	case expr.KindInt, expr.KindFloat:
		return lit.IsNumeric()
	default:
		return lit.Kind() == k
	}
}

// predFingerprint canonically encodes a predicate list for cache
// keys.
func predFingerprint(preds []storage.PrunePredicate) string {
	if len(preds) == 0 {
		return ""
	}
	var b strings.Builder
	for _, p := range preds {
		b.WriteString(p.Col)
		b.WriteByte(1)
		b.WriteString(p.Op)
		b.WriteByte(1)
		b.WriteString(strconv.Itoa(int(p.Val.Kind())))
		b.WriteByte(1)
		b.WriteString(p.Val.String())
		b.WriteByte(0)
	}
	return b.String()
}

// resultColumns is the output schema: group columns then measure
// outputs.
func (p *starPlan) resultColumns() []string {
	out := append([]string(nil), p.groupBy...)
	for _, a := range p.aggs[:p.visible] {
		out = append(out, a.Out)
	}
	return out
}
