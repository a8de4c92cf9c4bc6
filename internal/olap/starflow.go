package olap

import (
	"context"
	"fmt"
	"strings"

	"quarry/internal/engine"
	"quarry/internal/sqlgen"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// The star-flow oracle answers the same cube queries by compiling the
// shared plan to a throwaway xLM star flow and executing it with the
// ETL engine's reference executor (engine.RunMaterializingContext): a
// second, independent execution strategy kept as the correctness
// reference the fast path is tested against (and the baseline its
// speedup is measured from). The production executor and the fast path
// share one join index, one vector filter and one aggregate entry
// point; the reference runs the row kernels, so it shares none of them.
//
// Unlike the pre-PR-2 implementation, the flow never touches the
// warehouse: it runs against a private scratch database holding
// frozen snapshot views of the deployed tables, so its result table
// is invisible to other queries and to concurrent ETL runs, and the
// oracle reads the same stable snapshot the fast path would.

// scratch table names used by the oracle flows.
const (
	answerTable = "__olap_answer"
	detailTable = "__olap_detail"
	dicedTable  = "__olap_diced"
)

// QueryStarFlow answers the cube query with the star-flow oracle.
// Results are byte-identical to Query.
func (e *Engine) QueryStarFlow(q CubeQuery) (*Result, error) {
	return e.QueryStarFlowContext(context.Background(), q)
}

// QueryStarFlowContext is QueryStarFlow under a context: cancellation
// aborts the scratch engine runs through their first-error path.
func (e *Engine) QueryStarFlowContext(ctx context.Context, q CubeQuery) (*Result, error) {
	p, snap, err := e.planned(q)
	if err != nil {
		return nil, err
	}
	// Private scratch DB sharing frozen views of the deployed tables,
	// published in one commit. It has no directory, so it keeps
	// referring to the warehouse's segments instead of copying them.
	scratch := storage.NewMemDB()
	views := make([]*storage.Table, len(p.tables))
	for i, name := range p.tables {
		view, _ := snap.Table(name)
		views[i] = view.Freeze()
	}
	if err := scratch.PublishAll(views); err != nil {
		return nil, err
	}
	if p.dice == nil {
		d, err := buildStarFlow(p, true)
		if err != nil {
			return nil, err
		}
		if _, err := engine.RunMaterializingContext(ctx, d, scratch); err != nil {
			return nil, err
		}
		return readResult(scratch, p, snap.Version())
	}
	// Dicing: materialise the detail rows (joins + filter, no
	// aggregation), prune them to the diamond with the reference
	// fixpoint, then aggregate the survivors with a second flow.
	d1, err := buildStarFlow(p, false)
	if err != nil {
		return nil, err
	}
	if _, err := engine.RunMaterializingContext(ctx, d1, scratch); err != nil {
		return nil, err
	}
	detail, ok := scratch.Table(detailTable)
	if !ok {
		return nil, fmt.Errorf("olap: internal: detail table missing")
	}
	survivors, err := diceReference(detail.Rows(), p.dice)
	if err != nil {
		return nil, err
	}
	diced, err := scratch.CreateTable(dicedTable, detail.Columns)
	if err != nil {
		return nil, err
	}
	if err := diced.InsertAll(survivors); err != nil {
		return nil, err
	}
	fields := make([]xlm.Field, len(detail.Columns))
	for i, c := range detail.Columns {
		fields[i] = xlm.Field{Name: c.Name, Type: c.Type}
	}
	d2, err := buildAggregateFlow(p, fields)
	if err != nil {
		return nil, err
	}
	if _, err := engine.RunMaterializingContext(ctx, d2, scratch); err != nil {
		return nil, err
	}
	return readResult(scratch, p, snap.Version())
}

// readResult copies the answer table out of the scratch DB, stamped
// with the version of the snapshot the flow read.
func readResult(scratch *storage.DB, p *starPlan, version uint64) (*Result, error) {
	answer, ok := scratch.Table(answerTable)
	if !ok {
		return nil, fmt.Errorf("olap: internal: answer table missing")
	}
	res := &Result{Columns: p.resultColumns(), Version: version, Class: ClassOracle}
	res.Rows = answer.Rows()
	return res, nil
}

// addTable emits a datastore node scanning a deployed table.
func addTable(d *xlm.Design, def *sqlgen.TableDef, nodeName string) error {
	fields := make([]xlm.Field, len(def.Columns))
	copy(fields, def.Columns)
	return d.AddNode(&xlm.Node{
		Name: nodeName, Type: xlm.OpDatastore, Optype: "TableInput",
		Fields: fields,
		Params: map[string]string{"store": "dw", "table": def.Name},
	})
}

// link adds node n to the flow behind the nodes from, in order.
func link(d *xlm.Design, n *xlm.Node, from ...string) error {
	if err := d.AddNode(n); err != nil {
		return err
	}
	for _, f := range from {
		if err := d.AddEdge(f, n.Name); err != nil {
			return err
		}
	}
	return nil
}

// buildStarFlow compiles the plan to an xLM star flow: fact scan,
// one projection+hash-join per dimension (in plan order), the filter,
// and — when aggregate is true — the cube aggregation, sort and
// answer loader; otherwise the joined, filtered detail rows are
// loaded into the detail table for dicing.
func buildStarFlow(p *starPlan, aggregate bool) (*xlm.Design, error) {
	d := xlm.NewDesign("olap_" + p.fact.Name)
	if err := addTable(d, p.fact, "DW_"+p.fact.Name); err != nil {
		return nil, err
	}
	cur := "DW_" + p.fact.Name
	for _, sj := range p.joins {
		nodeName := "DW_" + sj.def.Name
		if err := addTable(d, sj.def, nodeName); err != nil {
			return nil, err
		}
		projCols := []string{sj.keyAlias + "=" + sj.refCol}
		projCols = append(projCols, sj.buildCols...)
		proj := &xlm.Node{
			Name: "PREP_" + sj.def.Name, Type: xlm.OpProjection,
			Params: map[string]string{"columns": strings.Join(projCols, ",")},
		}
		if err := link(d, proj, nodeName); err != nil {
			return nil, err
		}
		join := &xlm.Node{
			Name: "JOIN_" + sj.def.Name, Type: xlm.OpJoin,
			Params: map[string]string{"on": sj.fkCol + "=" + sj.keyAlias},
		}
		if err := link(d, join, cur, proj.Name); err != nil {
			return nil, err
		}
		cur = join.Name
	}
	if p.filter != nil {
		sel := &xlm.Node{
			Name: "FILTER", Type: xlm.OpSelection,
			Params: map[string]string{"predicate": p.filter.String()},
		}
		if err := link(d, sel, cur); err != nil {
			return nil, err
		}
		cur = sel.Name
	}
	var err error
	if aggregate {
		err = addAggregateTail(d, p, cur)
	} else {
		err = link(d, &xlm.Node{
			Name: "DETAIL", Type: xlm.OpLoader, Optype: "TableOutput",
			Params: map[string]string{"table": detailTable, "mode": "replace"},
		}, cur)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// buildAggregateFlow compiles the aggregation tail alone, reading the
// diced detail table.
func buildAggregateFlow(p *starPlan, detailFields []xlm.Field) (*xlm.Design, error) {
	d := xlm.NewDesign("olap_dice_" + p.fact.Name)
	ds := &xlm.Node{
		Name: "DW_DICED", Type: xlm.OpDatastore, Optype: "TableInput",
		Fields: detailFields,
		Params: map[string]string{"store": "dw", "table": dicedTable},
	}
	if err := d.AddNode(ds); err != nil {
		return nil, err
	}
	if err := addAggregateTail(d, p, ds.Name); err != nil {
		return nil, err
	}
	return d, nil
}

// addAggregateTail appends CUBE → ORDER → ANSWER to the flow.
func addAggregateTail(d *xlm.Design, p *starPlan, cur string) error {
	var aggs []string
	for _, a := range p.aggs[:p.visible] {
		aggs = append(aggs, fmt.Sprintf("%s:%s:%s", a.Out, a.Func, a.Col))
	}
	if err := link(d, &xlm.Node{
		Name: "CUBE", Type: xlm.OpAggregation,
		Params: map[string]string{
			"group":      strings.Join(p.groupBy, ","),
			"aggregates": strings.Join(aggs, ";"),
		},
	}, cur); err != nil {
		return err
	}
	if err := link(d, &xlm.Node{
		Name: "ORDER", Type: xlm.OpSort,
		Params: map[string]string{"by": strings.Join(p.groupBy, ",")},
	}, "CUBE"); err != nil {
		return err
	}
	return link(d, &xlm.Node{
		Name: "ANSWER", Type: xlm.OpLoader, Optype: "TableOutput",
		Params: map[string]string{"table": answerTable, "mode": "replace"},
	}, "ORDER")
}
