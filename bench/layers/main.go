// Command layers is the Quarry benchmark's traced run. In-process, on
// a disk warehouse of the given scale factor (the driver passes the
// workload's), it times calls into each module's public functions:
// every ad-hoc shape once through olap.Engine.Query and once
// hand-composed from the public kernels (storage cursor → engine hash
// join → expr filter → engine hash aggregation → sort → render), plus
// the shard path (QueryPartial → wire encode → decode → Merge). Each
// call is a span {name, start, end, parent, query}; spans are kept in
// memory, written to -out at exit, and every metric printed is derived
// from them.
//
// All quarry/internal imports of the benchmark live in this package
// (see README "pinned surface"); the driver never sees them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"quarry/bench/trace"
	"quarry/bench/workload"
	"quarry/internal/core"
	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/shard"
	"quarry/internal/sqlgen"
	"quarry/internal/storage"
	"quarry/internal/tpch"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reps is how often each timed call repeats; metrics are medians over
// the repetitions' spans.
const reps = 7

func main() {
	sf := flag.Float64("sf", 0, "micro-TPC-H scale factor (required)")
	seed := flag.Int64("seed", 0, "seed of the query literals")
	dataDir := flag.String("data-dir", "", "empty directory for the disk warehouse (required)")
	out := flag.String("out", "", "span file to write (required)")
	flag.Parse()
	if *sf <= 0 || *dataDir == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: layers -sf SF -seed N -data-dir DIR -out FILE")
		os.Exit(2)
	}
	line, err := report(*sf, *seed, *dataDir, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// report runs the traced run, writes the span file and returns the
// metrics as the JSON line the driver reads.
func report(sf float64, seed int64, dataDir, out string) (string, error) {
	metrics, spans, err := run(sf, seed, dataDir)
	if err != nil {
		return "", err
	}
	if err := trace.WriteFile(out, spans); err != nil {
		return "", err
	}
	b, err := json.Marshal(struct {
		Metrics map[string]metric `json:"metrics"`
	}{metrics})
	return string(b), err
}

// newPlatform generates the sources into db and deploys the four
// canonical requirements, as quarryd plus the driver's set-up do.
func newPlatform(db *storage.DB, sf float64, spec shard.Spec, checkpoint func() error) (*core.Platform, error) {
	onto, err := tpch.Ontology()
	if err != nil {
		return nil, err
	}
	mapg, err := tpch.Mapping()
	if err != nil {
		return nil, err
	}
	cat, err := tpch.Catalog(sf)
	if err != nil {
		return nil, err
	}
	if _, err := tpch.Generate(db, sf, workload.DataSeed); err != nil {
		return nil, err
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	p, err := core.New(core.Config{Ontology: onto, Mapping: mapg, Catalog: cat, DB: db, Shard: spec})
	if err != nil {
		return nil, err
	}
	for _, r := range tpch.CanonicalRequirements() {
		if _, err := p.AddRequirement(r); err != nil {
			return nil, err
		}
	}
	if _, err := p.Run(); err != nil {
		return nil, err
	}
	return p, nil
}

// cubeQuery converts the wire request the driver posts into the
// engine's query type, as the server's handler does.
func cubeQuery(r workload.Request) olap.CubeQuery {
	q := olap.CubeQuery{Fact: r.Fact, GroupBy: r.GroupBy, Filter: r.Filter, RollUp: r.RollUp}
	for _, m := range r.Measures {
		q.Measures = append(q.Measures, olap.MeasureSpec{Out: m.Out, Func: m.Func, Col: m.Col})
	}
	if r.Dice != nil {
		q.Dice = &olap.DiceSpec{Func: r.Dice.Func, Thresholds: r.Dice.Thresholds}
	}
	return q
}

// bench is the traced run's state.
type bench struct {
	rec  *trace.Recorder
	oe   *olap.Engine
	db   *storage.DB
	defs []sqlgen.TableDef
	// counts are the counters recorded beside the spans. A count
	// repeats exactly from one repetition to the next, so the last
	// write stands.
	counts map[string]float64
}

func (b *bench) count(name string, v float64) { b.counts[name] = v }

// timed records fn as a root span.
func (b *bench) timed(name, query string, fn func() error) error {
	id := b.rec.Start(name, query, 0)
	err := fn()
	b.rec.End(id)
	return err
}

func run(sf float64, seed int64, dataDir string) (map[string]metric, []trace.Span, error) {
	b := &bench{rec: trace.NewRecorder(), counts: map[string]float64{}}
	dir := filepath.Join(dataDir, "warehouse")
	db, err := storage.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	p, err := newPlatform(db, sf, shard.Spec{}, func() error {
		return b.timed("storage.checkpoint", "", db.Checkpoint)
	})
	if err != nil {
		return nil, nil, err
	}
	// A cold reopen of the committed warehouse: what a restart pays
	// before it can serve.
	for i := 0; i < 3; i++ {
		if err := b.timed("storage.reopen", "", func() error {
			_, err := storage.Open(dir)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}
	b.db = db
	if b.oe, err = p.OLAP(); err != nil {
		return nil, nil, err
	}
	_, etl := p.Unified()
	if b.defs, err = sqlgen.Tables(etl); err != nil {
		return nil, nil, err
	}

	// One query per shape, with the literals the seed gives the
	// ad-hoc round.
	round, err := workload.Round(workload.AdhocScan, seed)
	if err != nil {
		return nil, nil, err
	}
	byShape := map[string]workload.Query{}
	for _, q := range round {
		if _, ok := byShape[q.Shape]; !ok {
			byShape[q.Shape] = q
		}
	}
	results := map[string]*olap.Result{}
	for _, shape := range workload.Shapes {
		q := cubeQuery(byShape[shape].Req)
		for i := 0; i < reps; i++ {
			err := b.timed("olap.query."+shape, shape, func() error {
				res, err := b.oe.Query(q)
				results[shape] = res
				return err
			})
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", shape, err)
			}
		}
	}
	// The dice's own cost: the same query with the diamond left out.
	undiced := cubeQuery(byShape[workload.DiceShape].Req)
	undiced.Dice = nil
	for i := 0; i < reps; i++ {
		if err := b.timed("olap.query.undiced", workload.DiceShape, func() error {
			_, err := b.oe.Query(undiced)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < 3; i++ {
		if err := b.timed("olap.query.oracle", workload.ScanGroup, func() error {
			_, err := b.oe.QueryStarFlow(cubeQuery(byShape[workload.ScanGroup].Req))
			return err
		}); err != nil {
			return nil, nil, err
		}
	}

	// Hand-composed from the public kernels, checked against the engine.
	for _, shape := range []string{workload.ScanGroup, workload.ScanFilter, workload.StarWide, workload.StarFilter} {
		for i := 0; i < reps; i++ {
			rows, err := b.handBuilt(shape, byShape[shape].Req)
			if err != nil {
				return nil, nil, fmt.Errorf("hand-built %s: %w", shape, err)
			}
			if !reflect.DeepEqual(rows, results[shape].Rows) {
				return nil, nil, fmt.Errorf("hand-built %s differs from Engine.Query", shape)
			}
		}
	}
	if err := b.scans(dir); err != nil {
		return nil, nil, err
	}
	for i := 0; i < 200; i++ {
		if err := b.timed("expr.parse", workload.ScanFilter, func() error {
			_, err := expr.Parse(byShape[workload.ScanFilter].Req.Filter)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}
	if err := b.shardPath(sf, cubeQuery(byShape[workload.ScanGroup].Req), results[workload.ScanGroup]); err != nil {
		return nil, nil, err
	}

	spans := b.rec.Spans()
	m := derive(spans, b.counts)
	st := db.DiskStats()[factQuantity]
	m["storage.bytes_per_row.fact_table_quantity"] = metric{float64(st.Bytes) / b.counts["storage.cursor.rows"], "B"}
	m["engine.agg.groups"] = metric{float64(len(results[workload.ScanGroup].Rows)), "count"}
	return m, spans, nil
}

const factQuantity = "fact_table_quantity"

// scans times the storage cursor alone over the quantity fact, each
// time through a freshly opened handle so that pages are read and
// decoded, not found in the buffer pool: a full scan, and a scan
// behind a prune predicate no row satisfies, which the zone maps
// answer by skipping every page.
func (b *bench) scans(dir string) error {
	scan := func(name string, preds []storage.PrunePredicate) (read, skipped int, rows int64, err error) {
		db, err := storage.Open(dir)
		if err != nil {
			return 0, 0, 0, err
		}
		snap, err := db.Snapshot(factQuantity)
		if err != nil {
			return 0, 0, 0, err
		}
		view, ok := snap.Table(factQuantity)
		if !ok {
			return 0, 0, 0, fmt.Errorf("snapshot lacks %s", factQuantity)
		}
		id := b.rec.Start(name, factQuantity, 0)
		cur := view.Cursor(preds)
		for batch := cur.Next(batchRows); batch != nil; batch = cur.Next(batchRows) {
		}
		b.rec.End(id)
		read, skipped = cur.Stats()
		return read, skipped, view.NumRows(), nil
	}
	for i := 0; i < reps; i++ {
		read, _, rows, err := scan("storage.cursor.scan", nil)
		if err != nil {
			return err
		}
		b.count("storage.cursor.pages_read", float64(read))
		b.count("storage.cursor.rows", float64(rows))
		_, skipped, _, err := scan("storage.cursor.pruned_scan", []storage.PrunePredicate{{Col: "quantity", Op: "<", Val: expr.Int(0)}})
		if err != nil {
			return err
		}
		b.count("storage.cursor.pages_skipped", float64(skipped))
	}
	return nil
}

// shardPath times the scatter-gather pieces on a 2-way in-memory fleet
// and checks the merged answer against the single node's.
func (b *bench) shardPath(sf float64, q olap.CubeQuery, want *olap.Result) error {
	const n = 2
	engines := make([]*olap.Engine, n)
	for i := range engines {
		p, err := newPlatform(storage.NewMemDB(), sf, shard.Spec{Index: i, Count: n}, func() error { return nil })
		if err != nil {
			return err
		}
		if engines[i], err = p.OLAP(); err != nil {
			return err
		}
	}
	for r := 0; r < reps; r++ {
		resps := make([]*shard.PartialResponse, n)
		var wireBytes int
		for i, oe := range engines {
			var part *olap.Partial
			if err := b.timed("shard.partial", workload.ScanGroup, func() (err error) {
				part, err = oe.QueryPartial(q)
				return err
			}); err != nil {
				return err
			}
			var wire []byte
			if err := b.timed("shard.wire.encode", workload.ScanGroup, func() (err error) {
				wire, err = json.Marshal(shard.EncodePartial(i, n, part.Version, part.Columns, part.GroupCols, part.Aggs, part.Groups))
				return err
			}); err != nil {
				return err
			}
			wireBytes += len(wire)
			if err := b.timed("shard.wire.decode", workload.ScanGroup, func() error {
				resps[i] = new(shard.PartialResponse)
				if err := json.Unmarshal(wire, resps[i]); err != nil {
					return err
				}
				_, err := resps[i].DecodeGroups()
				return err
			}); err != nil {
				return err
			}
		}
		b.count("shard.wire.bytes", float64(wireBytes))
		var rows [][]expr.Value
		if err := b.timed("shard.merge", workload.ScanGroup, func() (err error) {
			_, rows, _, err = shard.Merge(resps)
			return err
		}); err != nil {
			return err
		}
		if !reflect.DeepEqual(rows, want.Rows) {
			return fmt.Errorf("merged shard partials differ from the single node's answer")
		}
	}
	return nil
}

// derive turns the spans into the per-layer metrics.
func derive(spans []trace.Span, counts map[string]float64) map[string]metric {
	self := trace.SelfTimes(spans)
	// Root spans: durations by name. Child spans (the stages of a
	// hand-built query, which carry their root's Query): self time
	// summed per root and stage, one sum per repetition.
	rootMs := map[string][]float64{}
	sums := map[int]map[string]float64{} // root ID → "<shape>/<stage>" → ms
	for _, s := range spans {
		if s.Parent == 0 {
			rootMs[s.Name] = append(rootMs[s.Name], ms(s.Dur()))
			continue
		}
		if sums[s.Parent] == nil {
			sums[s.Parent] = map[string]float64{}
		}
		sums[s.Parent][s.Query+"/"+s.Name] += ms(self[s.ID])
	}
	stageMs := map[string][]float64{}
	for _, bySt := range sums {
		for key, v := range bySt {
			stageMs[key] = append(stageMs[key], v)
		}
	}
	med := func(name string) float64 { return trace.Median(rootMs[name]) }
	stage := func(shape, name string) float64 { return trace.Median(stageMs[shape+"/"+name]) }
	perSec := func(n, millis float64) float64 { return n / (millis / 1e3) }

	m := map[string]metric{}
	rows := counts["storage.cursor.rows"]
	m["storage.cursor.scan_ms"] = metric{med("storage.cursor.scan"), "ms"}
	m["storage.cursor.scan_rows_per_s"] = metric{perSec(rows, med("storage.cursor.scan")), "1/s"}
	m["storage.cursor.pruned_scan_ms"] = metric{med("storage.cursor.pruned_scan"), "ms"}
	m["storage.cursor.pages_read"] = metric{counts["storage.cursor.pages_read"], "count"}
	m["storage.cursor.pages_skipped"] = metric{counts["storage.cursor.pages_skipped"], "count"}
	m["storage.checkpoint_ms"] = metric{med("storage.checkpoint"), "ms"}
	m["storage.reopen_ms"] = metric{med("storage.reopen"), "ms"}

	m["engine.join.build_ms"] = metric{stage(workload.ScanFilter, "engine.join.build"), "ms"}
	m["engine.join.probe_rows_per_s"] = metric{perSec(rows, stage(workload.ScanGroup, "engine.join.probe")), "1/s"}
	m["engine.agg.add_rows_per_s"] = metric{perSec(rows, stage(workload.ScanGroup, "engine.agg.add")), "1/s"}
	m["engine.sort_ms"] = metric{stage(workload.StarWide, "engine.sort"), "ms"}

	m["expr.parse_us"] = metric{med("expr.parse") * 1e3, "us"}
	m["expr.evalbool_ns_per_row"] = metric{stage(workload.ScanFilter, "expr.evalbool") * 1e6 / rows, "ns"}

	for _, shape := range workload.Shapes {
		m["olap.query."+shape+"_ms"] = metric{med("olap.query." + shape), "ms"}
	}
	m["olap.query.oracle_ms"] = metric{med("olap.query.oracle"), "ms"}
	m["olap.dice.fixpoint_ms"] = metric{med("olap.query."+workload.DiceShape) - med("olap.query.undiced"), "ms"}
	wide := counts["olap.render.rows"]
	m["olap.render.rows_per_s"] = metric{perSec(wide, stage(workload.StarWide, "olap.render")+stage(workload.StarWide, "json.marshal")), "1/s"}
	// Engine.Query ends at the sorted result, so the hand-built side
	// counts its stages up to the sort and leaves rendering out.
	var hand float64
	for _, name := range engineStages {
		hand += stage(workload.ScanFilter, name)
	}
	m["olap.handbuilt_vs_engine_ratio"] = metric{hand / med("olap.query."+workload.ScanFilter), "ratio"}

	m["shard.partial_ms"] = metric{med("shard.partial"), "ms"}
	m["shard.wire.encode_ms"] = metric{med("shard.wire.encode"), "ms"}
	m["shard.wire.decode_ms"] = metric{med("shard.wire.decode"), "ms"}
	m["shard.wire.bytes"] = metric{counts["shard.wire.bytes"], "B"}
	m["shard.merge_ms"] = metric{med("shard.merge"), "ms"}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
