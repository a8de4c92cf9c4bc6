package main

import (
	"encoding/json"
	"fmt"

	"quarry/bench/workload"
	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/sqlgen"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// batchRows is the fast path's batch size.
const batchRows = 1024

// engineStages are the hand-built stages that Engine.Query also
// performs (it ends at the sorted result; rendering is the server's).
var engineStages = []string{
	"storage.snapshot", "storage.cursor.next", "engine.join.build", "engine.join.probe",
	"expr.evalbool", "engine.agg.add", "engine.agg.result", "engine.sort",
}

// starJoin is one fact ⋈ dimension join of a hand-built plan.
type starJoin struct {
	table     string
	refCol    string
	buildCols []string
	probeIdx  int
	preds     []storage.PrunePredicate
}

// starPlan is the physical plan of one un-diced, un-rolled-up cube
// query, resolved from the deployed table definitions the same way the
// engine's planner resolves it: dimensions joined in the fact's
// foreign-key order, each contributing its key and the columns the
// query needs, `col OP literal` conjuncts pushed into the scans as
// prune predicates, the whole filter evaluated after the joins.
type starPlan struct {
	fact      *sqlgen.TableDef
	joins     []*starJoin
	index     map[string]int
	groupIdx  []int
	aggs      []xlm.AggSpec
	aggIdx    []int
	filter    expr.Node
	factPreds []storage.PrunePredicate
	columns   []string
}

func (b *bench) tableDef(name string) (*sqlgen.TableDef, error) {
	for i := range b.defs {
		if b.defs[i].Name == name {
			return &b.defs[i], nil
		}
	}
	return nil, fmt.Errorf("table %q is not deployed", name)
}

func (b *bench) plan(r workload.Request) (*starPlan, error) {
	fact, err := b.tableDef(r.Fact)
	if err != nil {
		return nil, err
	}
	p := &starPlan{fact: fact, columns: append([]string(nil), r.GroupBy...)}
	needed := map[string]bool{}
	for _, g := range r.GroupBy {
		needed[g] = true
	}
	for _, m := range r.Measures {
		if m.Col != "" {
			needed[m.Col] = true
		}
		p.aggs = append(p.aggs, xlm.AggSpec{Out: m.Out, Func: m.Func, Col: m.Col})
		p.columns = append(p.columns, m.Out)
	}
	if r.Filter != "" {
		if p.filter, err = expr.Parse(r.Filter); err != nil {
			return nil, err
		}
		for _, id := range expr.Idents(p.filter) {
			needed[id] = true
		}
	}
	var layout []string
	available := map[string]bool{}
	for _, c := range fact.Columns {
		layout = append(layout, c.Name)
		available[c.Name] = true
	}
	owner := map[string]*starJoin{}
	joined := map[string]bool{}
	for _, fk := range fact.ForeignKeys {
		if joined[fk.RefTable] {
			continue
		}
		dim, err := b.tableDef(fk.RefTable)
		if err != nil {
			return nil, err
		}
		j := &starJoin{table: dim.Name, refCol: fk.RefColumn, probeIdx: -1}
		for _, c := range dim.Columns {
			if needed[c.Name] && !available[c.Name] {
				j.buildCols = append(j.buildCols, c.Name)
			}
		}
		if len(j.buildCols) == 0 {
			continue
		}
		joined[dim.Name] = true
		for i, name := range layout {
			if name == fk.Column {
				j.probeIdx = i
				break
			}
		}
		if j.probeIdx < 0 {
			return nil, fmt.Errorf("fact %q lacks foreign-key column %q", fact.Name, fk.Column)
		}
		layout = append(layout, "__key_"+dim.Name)
		for _, c := range j.buildCols {
			layout = append(layout, c)
			available[c] = true
			owner[c] = j
		}
		p.joins = append(p.joins, j)
	}
	p.index = map[string]int{}
	for i, name := range layout {
		if _, dup := p.index[name]; !dup {
			p.index[name] = i
		}
	}
	for c := range needed {
		if !available[c] {
			return nil, fmt.Errorf("column %q not reachable from fact %q", c, fact.Name)
		}
	}
	for _, g := range r.GroupBy {
		p.groupIdx = append(p.groupIdx, p.index[g])
	}
	for _, a := range p.aggs {
		if a.Col == "" {
			p.aggIdx = append(p.aggIdx, -1)
		} else {
			p.aggIdx = append(p.aggIdx, p.index[a.Col])
		}
	}
	if p.filter != nil {
		for _, conj := range expr.Conjuncts(p.filter) {
			col, op, lit, ok := expr.Comparison(conj)
			if !ok {
				continue
			}
			pp := storage.PrunePredicate{Col: col, Op: op, Val: lit}
			if j := owner[col]; j != nil {
				j.preds = append(j.preds, pp)
			} else {
				p.factPreds = append(p.factPreds, pp)
			}
		}
	}
	return p, nil
}

// project maps the named columns of a view to positions; nil when the
// names are exactly the view's columns in order.
func project(view *storage.TableView, cols []string, force bool) ([]int, error) {
	idx := make([]int, len(cols))
	identity := !force && len(cols) == len(view.Columns())
	for i, name := range cols {
		j, ok := view.ColumnIndex(name)
		if !ok {
			return nil, fmt.Errorf("table %q lacks column %q", view.Name(), name)
		}
		idx[i] = j
		identity = identity && j == i
	}
	if identity {
		return nil, nil
	}
	return idx, nil
}

func projectRows(batch []storage.Row, idx []int) [][]expr.Value {
	out := make([][]expr.Value, len(batch))
	for i, r := range batch {
		if idx == nil {
			out[i] = r
			continue
		}
		nr := make([]expr.Value, len(idx))
		for k, j := range idx {
			nr[k] = r[j]
		}
		out[i] = nr
	}
	return out
}

// handBuilt answers the request from the public kernels, one span per
// call into a layer, all children of one root span. It returns the
// sorted result rows (what Engine.Query returns) after also rendering
// and marshalling them as the server would.
func (b *bench) handBuilt(shape string, r workload.Request) ([][]expr.Value, error) {
	p, err := b.plan(r)
	if err != nil {
		return nil, err
	}
	root := b.rec.Start("handbuilt."+shape, shape, 0)
	defer b.rec.End(root)
	var stageErr error
	stage := func(name string, fn func() error) bool {
		id := b.rec.Start(name, shape, root)
		stageErr = fn()
		b.rec.End(id)
		return stageErr == nil
	}

	tables := []string{p.fact.Name}
	for _, j := range p.joins {
		tables = append(tables, j.table)
	}
	var snap *storage.Snapshot
	if !stage("storage.snapshot", func() (err error) {
		snap, err = b.db.Snapshot(tables...)
		return err
	}) {
		return nil, stageErr
	}

	joins := make([]*engine.HashJoin, len(p.joins))
	for i, j := range p.joins {
		view, ok := snap.Table(j.table)
		if !ok {
			return nil, fmt.Errorf("snapshot lacks %s", j.table)
		}
		idx, err := project(view, append([]string{j.refCol}, j.buildCols...), true)
		if err != nil {
			return nil, err
		}
		hj, err := engine.NewHashJoin([]int{j.probeIdx}, []int{0})
		if err != nil {
			return nil, err
		}
		cur := view.Cursor(j.preds)
		for {
			var batch []storage.Row
			stage("storage.cursor.next", func() error { batch = cur.Next(batchRows); return nil })
			if batch == nil {
				break
			}
			stage("engine.join.build", func() error { hj.Build(projectRows(batch, idx)); return nil })
		}
		joins[i] = hj
	}

	agg, err := engine.NewHashAggregator(p.groupIdx, p.aggs, p.aggIdx)
	if err != nil {
		return nil, err
	}
	factView, ok := snap.Table(p.fact.Name)
	if !ok {
		return nil, fmt.Errorf("snapshot lacks %s", p.fact.Name)
	}
	factCols := make([]string, len(p.fact.Columns))
	for i, c := range p.fact.Columns {
		factCols[i] = c.Name
	}
	factIdx, err := project(factView, factCols, false)
	if err != nil {
		return nil, err
	}
	env := expr.NewSliceEnv(p.index)
	cur := factView.Cursor(p.factPreds)
	for {
		var batch []storage.Row
		stage("storage.cursor.next", func() error { batch = cur.Next(batchRows); return nil })
		if batch == nil {
			break
		}
		rows := projectRows(batch, factIdx)
		stage("engine.join.probe", func() error {
			for _, hj := range joins {
				rows = hj.Probe(nil, rows)
			}
			return nil
		})
		if p.filter != nil {
			if !stage("expr.evalbool", func() error {
				var kept [][]expr.Value
				ev := env.Env()
				for _, row := range rows {
					env.Bind(row)
					ok, err := expr.EvalBool(p.filter, ev)
					if err != nil {
						return err
					}
					if ok {
						kept = append(kept, row)
					}
				}
				rows = kept
				return nil
			}) {
				return nil, stageErr
			}
		}
		if !stage("engine.agg.add", func() error { return agg.Add(rows) }) {
			return nil, stageErr
		}
	}
	var rows [][]expr.Value
	stage("engine.agg.result", func() error { rows = agg.Result(); return nil })
	sortIdx := make([]int, len(p.groupIdx))
	for i := range sortIdx {
		sortIdx[i] = i
	}
	stage("engine.sort", func() error { rows = engine.SortRowsBy(rows, sortIdx); return nil })

	rendered := make([][]string, 0, len(rows))
	stage("olap.render", func() error {
		for _, row := range rows {
			rendered = append(rendered, olap.RenderRow(row))
		}
		return nil
	})
	if !stage("json.marshal", func() error {
		_, err := json.Marshal(struct {
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		}{p.columns, rendered})
		return err
	}) {
		return nil, stageErr
	}
	if shape == workload.StarWide {
		b.count("olap.render.rows", float64(len(rows)))
	}
	return rows, nil
}
