package olap

import (
	"context"
	"fmt"
	"math"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/storage"
)

// fastBatchSize is the number of rows per vectorized batch, matching
// the ETL engine's default.
const fastBatchSize = 1024

// dimSide is one dimension's build side: the columns the query reads
// (the join's buildCols) of every dimension row with a non-NULL key,
// as one value slab, plus an index from key to row numbers. It holds
// no per-row slice and no key column, and is immutable once built, so
// any number of probes share it.
type dimSide struct {
	width int          // len(buildCols)
	vals  []expr.Value // row r is vals[r*width : (r+1)*width]
	// heads maps a key's code (keyCode) to the first row carrying it;
	// next chains the later rows of the same code in insertion order,
	// as row+1 with 0 ending the chain (nil when no code repeats —
	// surrogate keys). Numeric codes are exact; keys is kept only for a
	// non-numeric key column, to tell colliding codes apart.
	heads map[uint64]int32
	next  []int32
	keys  []expr.Value
}

// keyCode maps a join key to the code it is indexed under; ok is false
// for keys that match nothing (NULL, NaN). Value.Equal compares ints
// and floats as float64s, so a numeric key's code is that float's bit
// pattern: two numeric keys are Equal exactly when their codes are,
// and Int(3) meets Float(3.0) as it does under Value.Hash. Any other
// key is coded by Value.Hash, which can collide.
func keyCode(v expr.Value) (code uint64, ok bool) {
	if v.IsNull() {
		return 0, false
	}
	f, numeric := v.AsFloat()
	if !numeric {
		return v.Hash(), true
	}
	if f != f {
		return 0, false
	}
	if f == 0 {
		f = 0 // -0 equals +0
	}
	return math.Float64bits(f), true
}

// first returns the first row whose key equals k, or -1.
func (d *dimSide) first(k expr.Value) int32 {
	code, ok := keyCode(k)
	if !ok {
		return -1
	}
	r, ok := d.heads[code]
	if !ok {
		return -1
	}
	if d.matches(r, k) {
		return r
	}
	return d.after(r, k)
}

// after returns the first row after r whose key equals k, or -1.
func (d *dimSide) after(r int32, k expr.Value) int32 {
	for d.next != nil && d.next[r] != 0 {
		r = d.next[r] - 1
		if d.matches(r, k) {
			return r
		}
	}
	return -1
}

// matches reports whether row r's key equals k, given equal codes.
func (d *dimSide) matches(r int32, k expr.Value) bool {
	if d.keys == nil {
		// Numeric key column: codes are exact among numeric values.
		return k.IsNumeric()
	}
	return d.keys[r].Equal(k)
}

// columnsOf resolves column names to a view's physical positions.
func columnsOf(view *storage.TableView, names ...string) ([]int, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		j, ok := view.ColumnIndex(name)
		if !ok {
			return nil, fmt.Errorf("olap: deployed table %q lacks column %q", view.Name(), name)
		}
		idx[i] = j
	}
	return idx, nil
}

// buildDimSide scans one dimension into its build side. The scan
// pushes the dimension's filter conjuncts into the cursor: pruned pages
// hold only rows the post-join filter would reject, so dropping them
// from the (inner) join's build side removes no surviving row.
func buildDimSide(ctx context.Context, view *storage.TableView, sj *starJoin) (*dimSide, error) {
	phys, err := columnsOf(view, append([]string{sj.refCol}, sj.buildCols...)...)
	if err != nil {
		return nil, err
	}
	keyCol, src := phys[0], phys[1:]
	d := &dimSide{width: len(src)}
	// Storage columns are typed, so a numeric column's keys all have
	// exact codes.
	keyType := view.Columns()[keyCol].Type
	exact := keyType == "int" || keyType == "float"
	var codes []uint64 // row → key code
	if len(sj.preds) == 0 {
		// Nothing is pruned, so the row count is known up front.
		d.vals = make([]expr.Value, 0, int(view.NumRows())*d.width)
		codes = make([]uint64, 0, view.NumRows())
	}
	cur := view.Cursor(sj.preds)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch := cur.Next(fastBatchSize)
		if batch == nil {
			break
		}
		for _, row := range batch {
			key := row[keyCol]
			code, ok := keyCode(key)
			if !ok {
				continue
			}
			if !exact {
				d.keys = append(d.keys, key)
			}
			codes = append(codes, code)
			for _, c := range src {
				d.vals = append(d.vals, row[c])
			}
		}
	}
	if len(codes) > math.MaxInt32 {
		return nil, fmt.Errorf("olap: dimension table %q has too many rows to index", view.Name())
	}
	// Indexing backwards and prepending leaves every chain in insertion
	// order without tracking tails.
	d.heads = make(map[uint64]int32, len(codes))
	for r := len(codes) - 1; r >= 0; r-- {
		if h, dup := d.heads[codes[r]]; dup {
			if d.next == nil {
				d.next = make([]int32, len(codes))
			}
			d.next[r] = h + 1
		}
		d.heads[codes[r]] = int32(r)
	}
	return d, nil
}

// buildDimSides runs the build phase: one dimSide per joined
// dimension. With a MatAgg attached, built sides are cached per
// (version, dimension rows, join shape) and reused across concurrent
// queries until the next republish.
func (e *Engine) buildDimSides(ctx context.Context, p *starPlan, snap *storage.Snapshot) ([]*dimSide, error) {
	var cache *dimCache
	if e.mat != nil {
		cache = e.mat.dims
	}
	sides := make([]*dimSide, len(p.joins))
	for i, sj := range p.joins {
		view, ok := snap.Table(sj.def.Name)
		if !ok {
			return nil, fmt.Errorf("olap: snapshot lacks dimension table %q", sj.def.Name)
		}
		key := ""
		if cache != nil {
			key = dimKey(sj, view.NumRows())
			if d, ok := cache.get(snap.Version(), key); ok {
				sides[i] = d
				continue
			}
		}
		d, err := buildDimSide(ctx, view, sj)
		if err != nil {
			return nil, err
		}
		if cache != nil {
			cache.put(snap.Version(), key, d)
		}
		sides[i] = d
	}
	return sides, nil
}

// probeStar runs the probe phase, the one loop behind Query,
// QueryPartial and the aggregate refresh: stream fact batches, resolve
// each fact row to a dimension row number per join, write only the
// columns the query reads (p.cols) into a slab, filter, and hand each
// batch of surviving rows to emit. Row order is the joined order of
// the oracle's flow: fact order, and for a fact row matching several
// dimension rows, build insertion order with the last join varying
// fastest.
//
// The slab is reused: emit may modify the rows it is given but must
// not keep them past its return (engine.HashAggregator.Add copies the
// values it keeps; the dice, which must keep rows, copies them).
// Cancellation is checked at every batch boundary — the places a
// query spends its time — so an abandoned query releases its
// resources promptly.
func (e *Engine) probeStar(ctx context.Context, p *starPlan, snap *storage.Snapshot, sides []*dimSide, emit func(rows [][]expr.Value) error) error {
	factView, ok := snap.Table(p.fact.Name)
	if !ok {
		return fmt.Errorf("olap: snapshot lacks fact table %q", p.fact.Name)
	}
	// Fact columns by physical position: each join's key, and p.cols
	// with its fact columns re-addressed (src).
	fkCols := make([]string, len(p.joins))
	for k, sj := range p.joins {
		fkCols[k] = sj.fkCol
	}
	keyCol, err := columnsOf(factView, fkCols...)
	if err != nil {
		return err
	}
	src := append([]planCol(nil), p.cols...)
	for i, c := range src {
		if c.join < 0 {
			phys, err := columnsOf(factView, p.fact.Columns[c.col].Name)
			if err != nil {
				return err
			}
			src[i].col = phys[0]
		}
	}
	width := len(src)
	var env *expr.SliceEnv
	if p.filter != nil {
		env = expr.NewSliceEnv(p.index)
	}
	var (
		slab  []expr.Value
		rows  [][]expr.Value
		head  = make([]int32, len(sides)) // first match per join
		match = make([]int32, len(sides)) // current match per join
	)
	// The cursor skips fact pages that the pushed-down conjuncts' zone
	// maps prove empty of qualifying rows.
	factCur := factView.Cursor(p.factPreds)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := factCur.Next(fastBatchSize)
		if batch == nil {
			return nil
		}
		slab = slab[:0]
	facts:
		for _, frow := range batch {
			for k, s := range sides {
				if head[k] = s.first(frow[keyCol[k]]); head[k] < 0 {
					continue facts
				}
			}
			copy(match, head)
			for {
				for _, c := range src {
					if c.join < 0 {
						slab = append(slab, frow[c.col])
					} else {
						s := sides[c.join]
						slab = append(slab, s.vals[int(match[c.join])*s.width+c.col])
					}
				}
				// Step to the next combination of matches, the last
				// join fastest.
				k := len(sides) - 1
				for ; k >= 0; k-- {
					if match[k] = sides[k].after(match[k], frow[keyCol[k]]); match[k] >= 0 {
						break
					}
					match[k] = head[k]
				}
				if k < 0 {
					break
				}
			}
		}
		rows = rows[:0]
		for i := 0; i < len(slab); i += width {
			rows = append(rows, slab[i:i+width:i+width])
		}
		if env != nil {
			ev := env.Env()
			kept := rows[:0]
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
		}
		if err := emit(rows); err != nil {
			return err
		}
	}
}

// execFast runs the plan on the vectorized fast path over a snapshot:
// build per-dimension sides (buildDimSides), stream the fact through
// join → filter → (dice) → hash aggregation (probeStar), sort, and
// return the in-memory result. Nothing is written to any database.
func (e *Engine) execFast(ctx context.Context, p *starPlan, snap *storage.Snapshot) (*Result, error) {
	sides, err := e.buildDimSides(ctx, p, snap)
	if err != nil {
		return nil, err
	}
	agg, err := engine.NewHashAggregator(p.groupIdx, p.aggs, p.aggIdx)
	if err != nil {
		return nil, err
	}
	// String group keys aggregate as dictionary codes, decoded on the
	// surviving groups at emit (never when dicing — the dice reads
	// detail rows directly).
	var coder *groupCoder
	if p.dice == nil && len(p.codedGroup) > 0 {
		coder = newGroupCoder(p)
	}
	var detail [][]expr.Value // buffered only when dicing
	if err := e.probeStar(ctx, p, snap, sides, func(cur [][]expr.Value) error {
		if p.dice != nil {
			// The dice keeps its rows: copy them out of the slab.
			chunk := make([]expr.Value, 0, len(cur)*len(p.cols))
			for _, row := range cur {
				chunk = append(chunk, row...)
				detail = append(detail, chunk[len(chunk)-len(row):len(chunk):len(chunk)])
			}
			return nil
		}
		if coder != nil {
			coder.encode(cur)
		}
		return agg.Add(cur)
	}); err != nil {
		return nil, err
	}
	if p.dice != nil {
		survivors, err := diceFast(detail, p.dice.at(p.index))
		if err != nil {
			return nil, err
		}
		if err := agg.Add(survivors); err != nil {
			return nil, err
		}
	}
	rows := agg.Result()
	if coder != nil {
		coder.decode(rows)
	}
	rows = engine.SortRowsBy(rows, leading(len(p.groupBy)))
	class := ClassFast
	if p.dice != nil {
		class = ClassDice
	}
	return &Result{Columns: p.resultColumns(), Rows: rows, Version: snap.Version(), Class: class}, nil
}
