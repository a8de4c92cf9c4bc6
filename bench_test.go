// Benchmark harness regenerating every figure and demonstration
// scenario of the paper (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for paper-vs-measured). The paper is a demo paper
// with no quantitative tables; the benches therefore measure the
// system behaviours the demo shows on stage: elicitation suggestion
// latency, requirement interpretation, incremental integration,
// deployment artifact generation, and the headline claim — reduced
// overall execution effort for integrated ETL processes.
package quarry_test

import (
	"fmt"
	"testing"

	"quarry"
	"quarry/internal/elicitor"
	"quarry/internal/engine"
	"quarry/internal/etlintegrator"
	"quarry/internal/expr"
	"quarry/internal/interpreter"
	"quarry/internal/mdintegrator"
	"quarry/internal/olap"
	"quarry/internal/ontology"
	"quarry/internal/pdi"
	"quarry/internal/quality"
	"quarry/internal/sqlgen"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// xrqMeasure aliases the xRQ measure type for the workload builders.
type xrqMeasure = xrq.Measure

// tpchInterp builds the shared interpreter fixture.
func tpchInterp(b *testing.B, sf float64) (*interpreter.Interpreter, *quality.ExecutionTimeModel) {
	b.Helper()
	o, err := tpch.Ontology()
	if err != nil {
		b.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		b.Fatal(err)
	}
	c, err := tpch.Catalog(sf)
	if err != nil {
		b.Fatal(err)
	}
	in, err := interpreter.New(o, m, c)
	if err != nil {
		b.Fatal(err)
	}
	return in, quality.DefaultETLCost(c)
}

// BenchmarkFig1_EndToEndLifecycle runs the full Figure 1 pipeline:
// four requirements through interpretation, MD+ETL integration,
// validation and deployment artifact generation.
func BenchmarkFig1_EndToEndLifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, err := quarry.NewTPCHPlatform(1, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range quarry.CanonicalRequirements() {
			if _, err := p.AddRequirement(r); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := p.Deploy("demo"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_ElicitorSuggestions measures the Requirements
// Elicitor's perspective suggestion over ontologies of growing size
// (the TPC-H ontology plus synthetic chains around it).
func BenchmarkFig2_ElicitorSuggestions(b *testing.B) {
	for _, extra := range []int{0, 32, 128, 512} {
		b.Run(fmt.Sprintf("concepts=%d", 8+extra), func(b *testing.B) {
			o, err := tpch.Ontology()
			if err != nil {
				b.Fatal(err)
			}
			m, err := tpch.Mapping()
			if err != nil {
				b.Fatal(err)
			}
			// Grow the ontology: chains of to-one hops hanging off
			// Part (unmapped concepts are skipped by suggestion, so
			// they only exercise graph traversal).
			prev := "Part"
			for i := 0; i < extra; i++ {
				id := fmt.Sprintf("Synth%04d", i)
				o.AddConcept(id, "")
				o.AddProperty(id, "name", "string", "")
				o.AddObjectProperty(fmt.Sprintf("synth_%04d", i), "", prev, id, ontology.ManyToOne)
				if i%8 != 7 {
					prev = id
				} else {
					prev = "Part" // branch
				}
			}
			e := elicitor.New(o, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Suggest("Lineitem"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3_IntegrationAndDeployment measures the Figure 3 step:
// integrating the net-profit partial design into the revenue design
// (MD + ETL) and generating the deployment artifacts.
func BenchmarkFig3_IntegrationAndDeployment(b *testing.B) {
	in, cost := tpchInterp(b, 10)
	pd1, err := in.Interpret(tpch.RevenueRequirement())
	if err != nil {
		b.Fatal(err)
	}
	pd2, err := in.Interpret(tpch.NetProfitRequirement())
	if err != nil {
		b.Fatal(err)
	}
	mdInt := mdintegrator.New(nil, nil)
	etlInt := etlintegrator.New(cost, true)
	b.ResetTimer()
	var lastReuse float64
	for i := 0; i < b.N; i++ {
		md, _, err := mdInt.Integrate(nil, pd1.MD)
		if err != nil {
			b.Fatal(err)
		}
		if md, _, err = mdInt.Integrate(md, pd2.MD); err != nil {
			b.Fatal(err)
		}
		etl, _, err := etlInt.Integrate(nil, pd1.ETL)
		if err != nil {
			b.Fatal(err)
		}
		etl, rep, err := etlInt.Integrate(etl, pd2.ETL)
		if err != nil {
			b.Fatal(err)
		}
		lastReuse = rep.ReuseRatio()
		if _, err := quarryDeployArtifacts(md, etl); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastReuse, "reuse_ratio")
}

// quarryDeployArtifacts mirrors core.Deploy without a platform.
func quarryDeployArtifacts(md *xmd.Schema, etl *xlm.Design) (int, error) {
	ddl, err := sqlgen.DDL("demo", etl)
	if err != nil {
		return 0, err
	}
	ktr, err := pdi.Marshal(etl, "demo")
	if err != nil {
		return 0, err
	}
	_ = md
	return len(ddl) + len(ktr), nil
}

// BenchmarkFig4_RequirementInterpretation measures xRQ → (xMD, xLM)
// translation for the Figure 4 revenue requirement.
func BenchmarkFig4_RequirementInterpretation(b *testing.B) {
	in, _ := tpchInterp(b, 10)
	r := tpch.RevenueRequirement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Interpret(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioA_AssistedDesign measures the non-expert path:
// focus ranking, suggestion, guided requirement assembly, and
// interpretation.
func BenchmarkScenarioA_AssistedDesign(b *testing.B) {
	in, _ := tpchInterp(b, 1)
	o, _ := tpch.Ontology()
	m, _ := tpch.Mapping()
	e := elicitor.New(o, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foci := e.SuggestFoci()
		sg, err := e.Suggest(foci[0].Concept)
		if err != nil {
			b.Fatal(err)
		}
		r, err := e.NewRequirement(fmt.Sprintf("IR_a_%d", i), "assisted").
			AddMeasure("quantity", "Lineitem.l_quantity").
			AddDimension(sg.Dimensions[0].Attributes[0]).
			Build()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := in.Interpret(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioB_IncrementalVsRedesign compares accommodating the
// N-th requirement incrementally against redesigning from scratch —
// the efficiency argument of the evolution scenario.
func BenchmarkScenarioB_IncrementalVsRedesign(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		in, cost := tpchInterp(b, 1)
		reqs := tpch.GenerateRequirements(n + 1)
		partials := make([]*interpreter.PartialDesign, 0, n+1)
		for _, r := range reqs {
			pd, err := in.Interpret(r)
			if err != nil {
				b.Fatal(err)
			}
			partials = append(partials, pd)
		}
		mdInt := mdintegrator.New(nil, nil)
		etlInt := etlintegrator.New(cost, true)
		// Pre-build the unified design over the first n requirements.
		var baseMD *xmd.Schema
		var baseETL *xlm.Design
		for _, pd := range partials[:n] {
			var err error
			baseMD, _, err = mdInt.Integrate(baseMD, pd.MD)
			if err != nil {
				b.Fatal(err)
			}
			baseETL, _, err = etlInt.Integrate(baseETL, pd.ETL)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := mdInt.Integrate(baseMD, partials[n].MD); err != nil {
					b.Fatal(err)
				}
				if _, _, err := etlInt.Integrate(baseETL, partials[n].ETL); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("redesign/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var md *xmd.Schema
				var etl *xlm.Design
				for _, pd := range partials[:n+1] {
					var err error
					md, _, err = mdInt.Integrate(md, pd.MD)
					if err != nil {
						b.Fatal(err)
					}
					etl, _, err = etlInt.Integrate(etl, pd.ETL)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// relatedRequirements is a family of Lineitem-based reports sharing
// dimensions and slicer but differing in measures — the "many related
// reports over the same subject" workload where ETL integration pays
// off most (the flows share the whole extraction + join + selection
// prefix).
func relatedRequirements() []*quarry.Requirement {
	base := tpch.RevenueRequirement()
	mk := func(id, measure, formula string) *quarry.Requirement {
		r := base.Clone()
		r.ID = id
		r.Measures = []xrqMeasure{{ID: measure, Function: formula}}
		r.Aggs = nil
		return r
	}
	return []*quarry.Requirement{
		base,
		mk("IR_quantity", "quantity", "Lineitem.l_quantity"),
		mk("IR_charged", "charged", "Lineitem.l_extendedprice * (1 + Lineitem.l_tax)"),
		mk("IR_discounted", "discounted", "Lineitem.l_extendedprice * Lineitem.l_discount"),
	}
}

// BenchmarkScenarioB_IntegratedETLExecution measures the headline
// demo claim: the integrated ETL flow does less total work (and runs
// faster) than executing each requirement's flow separately. Sweeps
// scale factor and workload shape; reports the work-reduction ratio.
func BenchmarkScenarioB_IntegratedETLExecution(b *testing.B) {
	workloads := []struct {
		name string
		reqs []*quarry.Requirement
	}{
		{"diverse", []*quarry.Requirement{tpch.RevenueRequirement(), tpch.NetProfitRequirement()}},
		{"related", relatedRequirements()},
	}
	for _, wl := range workloads {
		for _, sf := range []float64{5, 20, 50} {
			in, cost := tpchInterp(b, sf)
			var partials []*interpreter.PartialDesign
			etlInt := etlintegrator.New(cost, true)
			var unified *xlm.Design
			for _, r := range wl.reqs {
				pd, err := in.Interpret(r)
				if err != nil {
					b.Fatal(err)
				}
				partials = append(partials, pd)
				unified, _, err = etlInt.Integrate(unified, pd.ETL)
				if err != nil {
					b.Fatal(err)
				}
			}
			db := storage.NewMemDB()
			if _, err := tpch.Generate(db, sf, 42); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/sf=%v", wl.name, sf), func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					res, err := engine.Run(unified, db)
					if err != nil {
						b.Fatal(err)
					}
					var sep int64
					for _, pd := range partials {
						r, err := engine.Run(pd.ETL, db)
						if err != nil {
							b.Fatal(err)
						}
						sep += r.RowsProcessed()
					}
					ratio = float64(sep) / float64(res.RowsProcessed())
				}
				b.ReportMetric(ratio, "work_reduction_x")
			})
		}
	}
}

// BenchmarkScenarioC_Deployment measures Design Deployer artifact
// generation (PostgreSQL DDL + PDI .ktr + star queries).
func BenchmarkScenarioC_Deployment(b *testing.B) {
	p, _, err := quarry.NewTPCHPlatform(1, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []*quarry.Requirement{quarry.RevenueRequirement(), quarry.NetProfitRequirement()} {
		if _, err := p.AddRequirement(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Deploy("demo"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ETLReordering quantifies the equivalence-rule
// reordering of the ETL integrator: reuse with and without it when
// the incoming flow orders operations differently.
func BenchmarkAblation_ETLReordering(b *testing.B) {
	mk := func(selFirst bool, name string) *xlm.Design {
		d := xlm.NewDesign(name)
		d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
			Fields: []xlm.Field{{Name: "a", Type: "int"}, {Name: "b", Type: "float"}, {Name: "g", Type: "string"}},
			Params: map[string]string{"store": "s", "table": "t"}})
		fn := &xlm.Node{Name: "F", Type: xlm.OpFunction, Params: map[string]string{"name": "f", "expr": "b * 2"}}
		sel := &xlm.Node{Name: "SEL", Type: xlm.OpSelection, Params: map[string]string{"predicate": "g = 'x'"}}
		first, second := fn, sel
		if selFirst {
			first, second = sel, fn
		}
		d.AddNode(first)
		d.AddNode(second)
		d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "out_" + name}})
		d.AddEdge("DS", first.Name)
		d.AddEdge(first.Name, second.Name)
		d.AddEdge(second.Name, "LOAD")
		return d
	}
	for _, reorder := range []bool{true, false} {
		b.Run(fmt.Sprintf("reorder=%v", reorder), func(b *testing.B) {
			it := etlintegrator.New(nil, reorder)
			var reuse float64
			for i := 0; i < b.N; i++ {
				u, _, err := it.Integrate(nil, mk(false, "u"))
				if err != nil {
					b.Fatal(err)
				}
				_, rep, err := it.Integrate(u, mk(true, "p"))
				if err != nil {
					b.Fatal(err)
				}
				reuse = rep.ReuseRatio()
			}
			b.ReportMetric(reuse, "reuse_ratio")
		})
	}
}

// BenchmarkAblation_MDCostModel compares cost-guided MD integration
// against the naive side-by-side union over a growing requirement
// set; reports the final structural complexity of each.
func BenchmarkAblation_MDCostModel(b *testing.B) {
	in, _ := tpchInterp(b, 1)
	reqs := tpch.GenerateRequirements(12)
	var partials []*xmd.Schema
	for _, r := range reqs {
		pd, err := in.Interpret(r)
		if err != nil {
			b.Fatal(err)
		}
		partials = append(partials, pd.MD)
	}
	cost := quality.DefaultMDCost()
	for _, guided := range []bool{true, false} {
		b.Run(fmt.Sprintf("cost_guided=%v", guided), func(b *testing.B) {
			it := mdintegrator.New(cost, nil)
			var complexity float64
			for i := 0; i < b.N; i++ {
				var u *xmd.Schema
				var err error
				for _, p := range partials {
					if guided {
						u, _, err = it.Integrate(u, p)
					} else {
						u, err = it.IntegrateNaive(u, p)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				complexity = cost.Complexity(u)
			}
			b.ReportMetric(complexity, "structural_complexity")
		})
	}
}

// BenchmarkAblation_OLAPFromDWvsSources quantifies the paper's §1
// motivation for the DW: answering an analytical question (total
// revenue per nation) from the pre-aggregated, ETL-maintained fact
// table versus recomputing it from the raw sources on every ask.
func BenchmarkAblation_OLAPFromDWvsSources(b *testing.B) {
	for _, sf := range []float64{10, 50} {
		p, db, err := quarry.NewTPCHPlatform(sf, 42)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.AddRequirement(quarry.RevenueRequirement()); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
		oe, err := p.OLAP()
		if err != nil {
			b.Fatal(err)
		}
		q := olap.CubeQuery{
			Fact:     "fact_table_revenue",
			GroupBy:  []string{"n_name"},
			Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
		}
		rev, ok := p.Partial("IR_revenue")
		if !ok {
			b.Fatal("partial missing")
		}
		b.Run(fmt.Sprintf("from_dw/sf=%v", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := oe.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("from_sources/sf=%v", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Recomputation = re-running the requirement's full
				// ETL flow against the raw sources.
				if _, err := engine.Run(rev.ETL, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MetadataLayer measures the Communication &
// Metadata layer: writing the xLM text of a unified ETL design of
// realistic size, as GET /api/design serves it.
func BenchmarkAblation_MetadataLayer(b *testing.B) {
	in, cost := tpchInterp(b, 1)
	etlInt := etlintegrator.New(cost, true)
	var unified *xlm.Design
	for _, r := range tpch.CanonicalRequirements() {
		pd, err := in.Interpret(r)
		if err != nil {
			b.Fatal(err)
		}
		unified, _, err = etlInt.Integrate(unified, pd.ETL)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("xlm_marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xlm.Marshal(unified); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchOLAPEngine builds a deployed TPC-H warehouse at SF 5 (the
// ISSUE 2 benchmark setting) and returns its OLAP engine.
func benchOLAPEngine(b *testing.B) *olap.Engine {
	b.Helper()
	p, _, err := quarry.NewTPCHPlatform(5, 42)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.AddRequirement(quarry.RevenueRequirement()); err != nil {
		b.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		b.Fatal(err)
	}
	oe, err := p.OLAP()
	if err != nil {
		b.Fatal(err)
	}
	return oe
}

// benchCubeQuery is the serving benchmark's workload: a two-dimension
// star join with two aggregates at the Nation roll-up level.
func benchCubeQuery() olap.CubeQuery {
	return olap.CubeQuery{
		Fact:    "fact_table_revenue",
		GroupBy: []string{"p_brand"},
		RollUp:  map[string]string{"Supplier": "Nation"},
		Measures: []olap.MeasureSpec{
			{Out: "total", Func: "SUM", Col: "revenue"},
			{Out: "n", Func: "COUNT", Col: ""},
		},
	}
}

// BenchmarkOLAPQuery_StarFlow measures the star-flow oracle: the cube
// query compiled to a throwaway xLM flow and executed by the full
// engine in a scratch database.
func BenchmarkOLAPQuery_StarFlow(b *testing.B) {
	oe := benchOLAPEngine(b)
	q := benchCubeQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oe.QueryStarFlow(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOLAPQuery_FastPath measures the vectorized serving path:
// hash joins and aggregation planned directly over snapshot cursors,
// no design construction, no warehouse writes.
func BenchmarkOLAPQuery_FastPath(b *testing.B) {
	oe := benchOLAPEngine(b)
	q := benchCubeQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oe.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDiskWarehouse builds the SF 5 disk-backed deployed warehouse
// the disk serving benchmarks share.
func benchDiskWarehouse(b *testing.B) (*quarry.Platform, *quarry.DB) {
	return benchDiskWarehouseAt(b, 5, quarry.RevenueRequirement())
}

// benchDiskWarehouseAt generates the TPC-H sources at sf into a fresh
// disk store, deploys the requirements and runs the ETL.
func benchDiskWarehouseAt(b *testing.B, sf float64, reqs ...*quarry.Requirement) (*quarry.Platform, *quarry.DB) {
	b.Helper()
	db, err := quarry.OpenDB(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	return benchWarehouseIn(b, db, sf, reqs...), db
}

// benchWarehouseIn generates the TPC-H sources at sf into db, deploys
// the requirements and runs the ETL.
func benchWarehouseIn(b *testing.B, db *quarry.DB, sf float64, reqs ...*quarry.Requirement) *quarry.Platform {
	b.Helper()
	if _, err := tpch.Generate(db, sf, 42); err != nil {
		b.Fatal(err)
	}
	onto, _ := tpch.Ontology()
	mapg, _ := tpch.Mapping()
	cat, _ := tpch.Catalog(sf)
	p, err := quarry.New(quarry.Config{Ontology: onto, Mapping: mapg, Catalog: cat, DB: db})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range reqs {
		if _, err := p.AddRequirement(r); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := p.Run(); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkOLAPQuery_FastPath_Disk is the fast-path serving benchmark
// over a disk-backed warehouse: the star join streams the fact table
// through paged snapshot cursors (decoded pages served from the
// buffer pool after the first touch) instead of resident row slices.
// Gated in CI against the previous run on the same runner class, and
// compared (warn only) with the newest checked-in BENCH_pr<N>.json.
func BenchmarkOLAPQuery_FastPath_Disk(b *testing.B) {
	p, _ := benchDiskWarehouse(b)
	oe, err := p.OLAP()
	if err != nil {
		b.Fatal(err)
	}
	q := benchCubeQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oe.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScanQuery runs q against the SF 200 disk warehouse of the four
// canonical requirements — the setting of the repository benchmark's
// adhoc_scan workload, where the 30 000-row quantity fact and its
// 30 000-row dim_orders make scan/join/aggregate work dominate the
// ~200 µs of fixed cost that is all an SF 5 query shows. No MatAgg is
// attached; the engine's dimension cache builds each dimension side
// (and its group codes) on the first query, and every later query at
// the same version probes the cached one.
func benchScanQuery(b *testing.B, q olap.CubeQuery) {
	p, _ := benchDiskWarehouseAt(b, 200, quarry.CanonicalRequirements()...)
	benchQueryOn(b, p, q)
}

func benchQueryOn(b *testing.B, p *quarry.Platform, q olap.CubeQuery) {
	oe, err := p.OLAP()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := oe.Query(q); err != nil { // first touch decodes the pages
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oe.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScanGroupQuery is adhoc_scan's scan_group shape: the whole
// quantity fact through two joins into 25 groups.
func benchScanGroupQuery() olap.CubeQuery {
	return olap.CubeQuery{
		Fact:    "fact_table_quantity",
		GroupBy: []string{"c_mktsegment", "o_orderpriority"},
		Measures: []olap.MeasureSpec{
			{Out: "total", Func: "SUM", Col: "quantity"},
			{Out: "n", Func: "COUNT", Col: ""},
		},
	}
}

// BenchmarkOLAPQuery_ScanGroup_SF200 is the scan-bound tier of the
// serving benchmarks. Gated in CI.
func BenchmarkOLAPQuery_ScanGroup_SF200(b *testing.B) {
	benchScanQuery(b, benchScanGroupQuery())
}

// BenchmarkOLAPQuery_ScanGroup_SF200_ColdDims is ScanGroup_SF200 on a
// fresh engine per query, whose empty dimension cache makes it build
// both dimension sides and their group codes: what the first query
// after a republish or a design change pays. Gated in CI.
func BenchmarkOLAPQuery_ScanGroup_SF200_ColdDims(b *testing.B) {
	p, db := benchDiskWarehouseAt(b, 200, quarry.CanonicalRequirements()...)
	md, etl := p.Unified()
	q := benchScanGroupQuery()
	warm, err := p.OLAP()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Query(q); err != nil { // first touch decodes the pages
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oe, err := olap.New(md, etl, db, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := oe.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOLAPQuery_ScanGroup_SF200_Mem is ScanGroup_SF200 over a
// database without a directory: the same pages, kept on the heap
// instead of mapped from files, so the two should read alike. Not
// gated.
func BenchmarkOLAPQuery_ScanGroup_SF200_Mem(b *testing.B) {
	p := benchWarehouseIn(b, storage.NewMemDB(), 200, quarry.CanonicalRequirements()...)
	benchQueryOn(b, p, benchScanGroupQuery())
}

// BenchmarkOLAPQuery_ScanFilter_SF200 is scan_group behind an
// expr-evaluated predicate over a dimension and a fact column
// (adhoc_scan's scan_filter shape). Gated in CI.
func BenchmarkOLAPQuery_ScanFilter_SF200(b *testing.B) {
	q := benchScanGroupQuery()
	q.Filter = "c_mktsegment = 'BUILDING' AND quantity > 20"
	benchScanQuery(b, q)
}

// benchDiceQuery is adhoc_scan's dice shape: COUNT carats 3 / 3 over
// the brand × supplier cube of the revenue fact.
func benchDiceQuery() olap.CubeQuery {
	return olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_brand", "s_name"},
		Measures: []olap.MeasureSpec{{Out: "n", Func: "COUNT"}},
		Dice:     &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"p_brand": 3, "s_name": 3}},
	}
}

// BenchmarkOLAPQuery_Dice_SF200 is adhoc_scan's dice shape by scan.
// Gated in CI.
func BenchmarkOLAPQuery_Dice_SF200(b *testing.B) {
	benchScanQuery(b, benchDiceQuery())
}

// BenchmarkOLAPQuery_DiceFromEntry answers Dice_SF200's dice on one
// SF 200 warehouse twice: from a materialized aggregate of its cube
// and its hidden COUNT carat (entry: the diamond cut from the entry's
// cells), and by scan (scan: Dice_SF200's fold). The ratio of the two
// is the analyst's second look at a diamond against the first. Gated
// in CI.
func BenchmarkOLAPQuery_DiceFromEntry(b *testing.B) {
	p, _ := benchDiskWarehouseAt(b, 200, quarry.CanonicalRequirements()...)
	q := benchDiceQuery()
	b.Run("entry", func(b *testing.B) {
		base, err := p.OLAP()
		if err != nil {
			b.Fatal(err)
		}
		mat := olap.NewMatAgg(8)
		oe := base.WithMatAgg(mat)
		if _, err := oe.Query(q); err != nil { // record the pattern
			b.Fatal(err)
		}
		if _, err := mat.Refresh(oe); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := oe.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := mat.Stats(); st.Hits+st.Rewrites == 0 {
			b.Fatalf("the dice was never answered from an entry: %+v", st)
		}
	})
	b.Run("scan", func(b *testing.B) { benchQueryOn(b, p, q) })
}

// BenchmarkOLAPQuery_StarWide_SF200 is adhoc_scan's star_wide shape:
// the revenue fact through the supplier and part dimensions into the
// supplier × brand cube, about 600 groups — a result wide enough that
// sorting it shows. Gated in CI.
func BenchmarkOLAPQuery_StarWide_SF200(b *testing.B) {
	benchScanQuery(b, olap.CubeQuery{
		Fact:    "fact_table_revenue",
		GroupBy: []string{"s_name", "p_brand"},
		Measures: []olap.MeasureSpec{
			{Out: "total", Func: "SUM", Col: "revenue"},
			{Out: "n", Func: "COUNT"},
		},
	})
}

// BenchmarkOLAPQuery_StarFilter_SF200 is adhoc_scan's star_filter
// shape: the revenue fact through the part dimension, one brand's
// parts by name. Gated in CI.
func BenchmarkOLAPQuery_StarFilter_SF200(b *testing.B) {
	benchScanQuery(b, olap.CubeQuery{
		Fact:    "fact_table_revenue",
		GroupBy: []string{"p_name"},
		Filter:  "p_brand = 'Brand#23'",
		Measures: []olap.MeasureSpec{
			{Out: "total", Func: "SUM", Col: "revenue"},
			{Out: "n", Func: "COUNT"},
		},
	})
}

// BenchmarkDiskFootprint_SF5 measures the on-disk size of the
// complete SF 5 warehouse (sources + deployed star schema) under the
// format-2 encodings, and reports it against the raw baseline
// (TestingForceRaw): disk_bytes_sf5, disk_raw_bytes_sf5 and the
// resulting compression_ratio (the ISSUE 6 acceptance floor is 0.30).
func BenchmarkDiskFootprint_SF5(b *testing.B) {
	size := func() int64 {
		_, db := benchDiskWarehouse(b)
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		var total int64
		for _, st := range db.DiskStats() {
			total += st.Bytes
		}
		return total
	}
	var encoded int64
	for i := 0; i < b.N; i++ {
		encoded = size()
	}
	b.StopTimer()
	storage.TestingForceRaw = true
	raw := size()
	storage.TestingForceRaw = false
	b.ReportMetric(float64(encoded), "disk_bytes_sf5")
	b.ReportMetric(float64(raw), "disk_raw_bytes_sf5")
	b.ReportMetric(1-float64(encoded)/float64(raw), "compression_ratio")
}

// benchEventsEngine deploys a synthetic clustered fact — 400k events
// whose day column arrives in ascending order, the natural shape of
// any time-partitioned append stream — on a disk store, with a
// minimal hand-built design so the OLAP engine can serve it. The
// TPC-H revenue fact is too small and unclustered to show page
// pruning; this one gives zone maps real teeth (each 64 KiB raw page
// spans a handful of days).
func benchEventsEngine(b *testing.B) *olap.Engine {
	b.Helper()
	db, err := quarry.OpenDB(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cols := []storage.Column{
		{Name: "day", Type: "int"},
		{Name: "bucket", Type: "string"},
		{Name: "v", Type: "float"},
	}
	tbl, err := db.CreateTable("events", cols)
	if err != nil {
		b.Fatal(err)
	}
	const n, perDay = 400_000, 2000
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			expr.Int(int64(i / perDay)),
			expr.Str(fmt.Sprintf("b%02d", i%16)),
			expr.Float(float64(i%997) * 1.5),
		}
	}
	if err := tbl.InsertAll(rows); err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	d := xlm.NewDesign("evbench")
	d.AddNode(&xlm.Node{Name: "DS", Type: xlm.OpDatastore,
		Fields: []xlm.Field{{Name: "day", Type: "int"}, {Name: "bucket", Type: "string"}, {Name: "v", Type: "float"}},
		Params: map[string]string{"store": "events_src", "table": "events_src"}})
	d.AddNode(&xlm.Node{Name: "LOAD", Type: xlm.OpLoader, Params: map[string]string{"table": "events"}})
	d.AddEdge("DS", "LOAD")
	oe, err := olap.New(&xmd.Schema{Name: "evbench"}, d, db, nil)
	if err != nil {
		b.Fatal(err)
	}
	return oe
}

// BenchmarkOLAPQuery_FastPath_Disk_Filtered measures what zone maps
// buy a selective filtered aggregation over the clustered events
// fact: the day >= 195 predicate (2.5% of rows) is pushed into the
// fact cursor, which skips every page whose day range falls below the
// cut. The zonemap=off leg runs the identical query with pruning
// disabled — the delta is pure page-skip win.
func BenchmarkOLAPQuery_FastPath_Disk_Filtered(b *testing.B) {
	oe := benchEventsEngine(b)
	q := olap.CubeQuery{
		Fact:     "events",
		GroupBy:  []string{"bucket"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "v"}},
		Filter:   "day >= 195",
	}
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("zonemap=%v", on), func(b *testing.B) {
			prev := storage.SetZoneMapPruning(on)
			defer storage.SetZoneMapPruning(prev)
			if _, err := oe.Query(q); err != nil { // warm the buffer pool
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := oe.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOLAPQuery_Materialized measures the materialized-aggregate
// path: the store is trained on the serving workload and refreshed
// once, then every query is rewritten onto its aggregate (a
// projection over ~tens of rows instead of a star join over the fact
// table). The acceptance bar is ≥2× over BenchmarkOLAPQuery_FastPath
// for covered roll-ups.
func BenchmarkOLAPQuery_Materialized(b *testing.B) {
	mat := olap.NewMatAgg(8)
	oe := benchOLAPEngine(b).WithMatAgg(mat)
	q := benchCubeQuery()
	if _, err := oe.Query(q); err != nil { // record the pattern
		b.Fatal(err)
	}
	if _, err := mat.Refresh(oe); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oe.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := mat.Stats(); st.Hits+st.Rewrites == 0 {
		b.Fatalf("benchmark never hit a materialized aggregate: %+v", st)
	}
}

// BenchmarkOLAPQuery_Rewrite measures the materialized aggregates'
// rewrite arm, which answers every dash_zipf matagg query: an entry
// grouped by supplier, brand and type answers the coarser per-supplier
// cube behind a brand and type equality filter, by filtering the
// entry's cells and merging the survivors (engine.MergeCells).
// SF 100, as dash_zipf serves it. Gated in CI.
func BenchmarkOLAPQuery_Rewrite(b *testing.B) {
	p, _ := benchDiskWarehouseAt(b, 100, quarry.RevenueRequirement())
	base, err := p.OLAP()
	if err != nil {
		b.Fatal(err)
	}
	mat := olap.NewMatAgg(8)
	oe := base.WithMatAgg(mat)
	q := olap.CubeQuery{
		Fact:    "fact_table_revenue",
		GroupBy: []string{"s_name"},
		Measures: []olap.MeasureSpec{
			{Out: "total", Func: "SUM", Col: "revenue"},
			{Out: "n", Func: "COUNT"},
		},
		Filter: "p_brand = 'Brand#13' AND p_type = 'PROMO'",
	}
	if _, err := oe.Query(q); err != nil { // record the pattern
		b.Fatal(err)
	}
	if _, err := mat.Refresh(oe); err != nil {
		b.Fatal(err)
	}
	if res, err := oe.Query(q); err != nil || len(res.Rows) == 0 {
		b.Fatalf("the filter keeps no group (%v): nothing would be merged", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oe.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := mat.Stats(); st.Rewrites == 0 {
		b.Fatalf("benchmark never rewrote onto a finer aggregate: %+v", st)
	}
}

// BenchmarkOLAPDice measures the diamond-dicing fixpoint (incremental
// worklist algorithm) on top of the fast path.
func BenchmarkOLAPDice(b *testing.B) {
	oe := benchOLAPEngine(b)
	q := benchCubeQuery()
	q.Dice = &olap.DiceSpec{Func: "COUNT", Thresholds: map[string]float64{"p_brand": 3, "n_name": 5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oe.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
