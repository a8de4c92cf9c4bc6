package storage

// The tail's two write paths: rows (Insert, InsertAll) and column
// vectors (AppendVectors, the ETL Loader's) must store the same rows,
// read back the same through every read, commit to the same bytes and
// refuse bad input with the same words.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"quarry/internal/expr"
	mf "quarry/internal/storage/manifest"
)

// tailColumn generates one column of a dirty table: its values by
// global row position, and per batch a choice of vector form.
type tailColumn struct {
	Column
	nulls  [][2]int // global row windows [lo, hi) that are NULL
	unique bool     // string column: a distinct value per row
}

// value is the column's value at global row g; ints asks a float
// column for ints only (a batch whose vector is an int vector).
func (c *tailColumn) value(rng *rand.Rand, g int, ints bool) expr.Value {
	for _, w := range c.nulls {
		if g >= w[0] && g < w[1] {
			return expr.Null()
		}
	}
	if rng.Intn(9) == 0 {
		return expr.Null()
	}
	switch c.Type {
	case "int":
		vals := []int64{0, -1, 7, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1}
		if rng.Intn(2) == 0 {
			return expr.Int(int64(g / 37))
		}
		return expr.Int(vals[rng.Intn(len(vals))])
	case "float":
		vals := []float64{0, math.Copysign(0, -1), 2.5, math.NaN(), math.Inf(-1), 1e300, 3}
		switch {
		case ints || rng.Intn(4) == 0:
			return expr.Int(int64(rng.Intn(5) - 2)) // widens in a float column
		case rng.Intn(3) == 0:
			return expr.Float(float64(g / 50))
		}
		return expr.Float(vals[rng.Intn(len(vals))])
	case "string":
		if c.unique {
			return expr.Str(fmt.Sprintf("u%d", g))
		}
		return expr.Str([]string{"", "a", "bb", "Brand#13", "a"}[rng.Intn(5)])
	}
	return expr.Bool(rng.Intn(3) == 0)
}

// vectorFor builds a column's vector from its values in one of the
// forms the executor hands a Loader: VectorOf's (typed — an int vector
// for a float column's batch of ints — or mixed when the values' kinds
// differ, a string entry per row), or a coded vector over a dictionary
// of its own with repeated and unused entries, for bools one that is
// not the shared dictionary.
func vectorFor(rng *rand.Rand, vals []expr.Value) *Vector {
	v := VectorOf(vals)
	if (v.Kind != expr.KindString && v.Kind != expr.KindBool) || rng.Intn(2) == 0 {
		return v
	}
	var dict []expr.Value
	if v.Kind == expr.KindBool {
		dict = []expr.Value{expr.Bool(false), expr.Bool(true)}
		if rng.Intn(2) == 0 {
			dict = []expr.Value{expr.Bool(true), expr.Bool(false)}
		}
	} else {
		seen := map[string]bool{}
		for _, x := range vals {
			if !x.IsNull() && !seen[x.AsString()] {
				seen[x.AsString()] = true
				dict = append(dict, x)
			}
		}
		rng.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
		dict = append(dict, expr.Str("unused"))
		dict = append(dict, dict...)
	}
	at := map[string][]uint32{}
	for c, d := range dict {
		at[d.String()] = append(at[d.String()], uint32(c))
	}
	w := &Vector{Kind: v.Kind, Dict: dict, Codes: make([]uint32, len(vals)), Nulls: v.Nulls}
	for i, x := range vals {
		if codes := at[x.String()]; !x.IsNull() {
			w.Codes[i] = codes[rng.Intn(len(codes))]
		}
	}
	return w
}

// spoil replaces a value with one of a kind the column rejects.
func spoil(rng *rand.Rand, typ string) expr.Value {
	switch typ {
	case "int":
		return []expr.Value{expr.Float(1.5), expr.Str("7"), expr.Bool(true)}[rng.Intn(3)]
	case "float":
		return []expr.Value{expr.Str("x"), expr.Bool(false)}[rng.Intn(2)]
	case "string":
		return []expr.Value{expr.Int(1), expr.Float(2)}[rng.Intn(2)]
	}
	return expr.Str("t")
}

// TestQuickVectorTailMatchesRows appends the same dirty batches to one
// table as vectors and to another as rows, with checkpoints between
// some of them, and holds the two to identical Rows, identical
// NextVectors, identical committed segment bytes and page directories
// — the pages the reference encoder renders from the rows — and
// identical errors on bad input, which leave both tables as they were.
func TestQuickVectorTailMatchesRows(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	types := []string{"int", "float", "string", "bool"}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var cols []tailColumn
		if seed%4 == 0 {
			// Narrow: pages of many rows, more distinct strings than a
			// page dictionary takes.
			cols = []tailColumn{{Column: Column{Name: "s", Type: "string"}, unique: true}}
		} else {
			for i := 0; i < 2+rng.Intn(5); i++ {
				cols = append(cols, tailColumn{Column: Column{Name: fmt.Sprintf("c%d", i), Type: types[rng.Intn(len(types))]},
					unique: rng.Intn(3) == 0})
			}
		}
		total := 2000 + rng.Intn(14000)
		for i := range cols {
			for w := 0; w < rng.Intn(4); w++ {
				lo := rng.Intn(total)
				cols[i].nulls = append(cols[i].nulls, [2]int{lo, lo + 1 + rng.Intn(5000)})
			}
		}
		schema := make([]Column, len(cols))
		for i, c := range cols {
			schema[i] = c.Column
		}
		dbV, dbR := NewMemDB(), NewMemDB()
		tv, err := dbV.CreateTable("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := dbR.CreateTable("t", schema)
		for g, batch := 0, 0; g < total; batch++ {
			n := 1 + rng.Intn(3000)
			ints := make([]bool, len(cols))
			for ci := range ints {
				ints[ci] = rng.Intn(4) == 0
			}
			rows := make([]Row, n)
			for r := range rows {
				rows[r] = make(Row, len(cols))
				for ci := range cols {
					rows[r][ci] = cols[ci].value(rng, g+r, ints[ci])
				}
			}
			bad := rng.Intn(5) == 0
			for k := 0; bad && k < 1+rng.Intn(3); k++ {
				ci := rng.Intn(len(cols))
				rows[rng.Intn(n)][ci] = spoil(rng, cols[ci].Type)
			}
			vecs := make([]*Vector, len(cols))
			vals := make([]expr.Value, n)
			for ci := range cols {
				for r := range rows {
					vals[r] = rows[r][ci]
				}
				vecs[ci] = vectorFor(rng, vals)
			}
			before := tv.NumRows()
			errV, errR := tv.AppendVectors(n, vecs), tr.InsertAll(rows)
			if fmt.Sprint(errV) != fmt.Sprint(errR) || (errV != nil) != bad {
				t.Fatalf("seed %d batch %d (spoiled %v): vectors: %v, rows: %v", seed, batch, bad, errV, errR)
			}
			if bad {
				if tv.NumRows() != before || tr.NumRows() != before {
					t.Fatalf("seed %d batch %d: a refused batch left %d / %d rows, had %d", seed, batch, tv.NumRows(), tr.NumRows(), before)
				}
				continue
			}
			g += n
			if rng.Intn(4) == 0 {
				if err := dbV.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := dbR.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(3) == 0 {
				if err := sameTails(dbV, dbR); err != nil {
					t.Fatalf("seed %d batch %d: %v", seed, batch, err)
				}
			}
		}
		if err := sameTails(dbV, dbR); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, db := range []*DB{dbV, dbR} {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameSegments(dbV, dbR); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// sameTails compares table t of two databases through Rows and through
// NextVectors, whose vectors must also be in each column's stored form.
func sameTails(a, b *DB) error {
	ta, _ := a.Table("t")
	tb, _ := b.Table("t")
	want := tb.Rows()
	if err := sameRows(ta.Rows(), want); err != nil {
		return fmt.Errorf("Rows: %w", err)
	}
	for _, db := range []*DB{a, b} {
		view := viewOfDB(db)
		all := make([]int, len(view.cols))
		for ci := range all {
			all[ci] = ci
		}
		kinds := map[string]expr.Kind{"int": expr.KindInt, "float": expr.KindFloat, "string": expr.KindString, "bool": expr.KindBool}
		var got []Row
		vecs := make([]*Vector, len(all))
		cur := view.Cursor(nil)
		for n := cur.NextVectors(all, vecs); n > 0; n = cur.NextVectors(all, vecs) {
			for ci, v := range vecs {
				if v.Kind != kinds[view.cols[ci].Type] || v.Len() != n {
					return fmt.Errorf("NextVectors: column %d (%s) read as a %s vector of %d rows in a chunk of %d",
						ci, view.cols[ci].Type, v.Kind, v.Len(), n)
				}
			}
			for r := 0; r < n; r++ {
				row := make(Row, len(all))
				for ci, v := range vecs {
					row[ci] = v.Value(r)
				}
				got = append(got, row)
			}
		}
		if err := sameRows(got, want); err != nil {
			return fmt.Errorf("NextVectors: %w", err)
		}
	}
	return nil
}

func viewOfDB(db *DB) *TableView {
	snap, err := db.Snapshot("t")
	if err != nil {
		panic(err)
	}
	view, _ := snap.Table("t")
	return view
}

// sameEntry reports whether two segment descriptors render to one
// manifest entry.
func sameEntry(a, b manifestSegment) bool {
	ea, errA := mf.RenderSegment(a)
	eb, errB := mf.RenderSegment(b)
	return errA == nil && errB == nil && bytes.Equal(ea, eb)
}

// sameSegments compares the committed segments of table t in two
// databases, bytes and page directories, and holds them to the
// reference encoder's pages of the segment's rows.
func sameSegments(a, b *DB) error {
	ta, _ := a.Table("t")
	tb, _ := b.Table("t")
	pa, _ := ta.capture()
	pb, _ := tb.capture()
	if len(pa.segs) != len(pb.segs) {
		return fmt.Errorf("%d segments vs %d", len(pa.segs), len(pb.segs))
	}
	ba, _ := a.SegmentBytes("t")
	bb, _ := b.SegmentBytes("t")
	rows := tb.Rows()
	first := 0
	for si := range pa.segs {
		da, db := pa.segs[si].descriptor(), pb.segs[si].descriptor()
		da.File, db.File = "", ""
		if !bytes.Equal(ba[si], bb[si]) || !sameEntry(da, db) {
			return fmt.Errorf("segment %d differs between the vector and the row tail", si)
		}
		seg := rows[first : first+pa.segs[si].rows]
		first += len(seg)
		var file []byte
		var dir []manifestPage
		at := 0
		for _, n := range splitPages(len(ta.Columns), seg) {
			ep := encodePageReference(ta.Columns, seg[at:at+n])
			dir = append(dir, manifestPage{Off: int64(len(file)), Size: len(ep.buf), Rows: n,
				Raw: ep.raw, Zones: zonesToManifest(ep.zones)})
			file = append(file, ep.buf...)
			at += n
		}
		if !bytes.Equal(ba[si], file) || !sameEntry(da, manifestSegment{Rows: len(seg), Format: manifestFormatV2, Pages: dir}) {
			return fmt.Errorf("segment %d is not the reference encoder's pages", si)
		}
	}
	return nil
}

// TestSnapshotReadsTailWhileLoaderAppends: snapshots taken while a
// writer appends vector batches and rows, and commits run, each read a
// prefix of what was appended — through Next and NextVectors alike —
// and never see a chunk change under them. Run it with -race.
func TestSnapshotReadsTailWhileLoaderAppends(t *testing.T) {
	db := NewMemDB()
	tbl, err := db.CreateTable("t", []Column{{Name: "i", Type: "int"}, {Name: "s", Type: "string"}})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 300
	var finished atomic.Bool
	failed := make(chan error, 1)
	go func() {
		defer finished.Store(true)
		g := 0
		for b := 0; b < batches; b++ {
			n := 1 + b%200
			ints, strs := make([]expr.Value, n), make([]expr.Value, n)
			for r := range ints {
				ints[r], strs[r] = expr.Int(int64(g+r)), expr.Str(fmt.Sprint(g+r))
			}
			var err error
			if b%3 == 0 {
				rows := make([]Row, n)
				for r := range rows {
					rows[r] = Row{ints[r], strs[r]}
				}
				err = tbl.InsertAll(rows)
			} else {
				err = tbl.AppendVectors(n, []*Vector{VectorOf(ints), VectorOf(strs)})
			}
			if err == nil && b%50 == 49 {
				err = db.Checkpoint()
			}
			if err != nil {
				failed <- err
				return
			}
			g += n
		}
	}()
	check := func(rows []Row) error {
		for g, r := range rows {
			if r[0].AsInt() != int64(g) || r[1].AsString() != fmt.Sprint(g) {
				return fmt.Errorf("row %d reads %v", g, r)
			}
		}
		return nil
	}
	for done := false; !done; {
		done = finished.Load()
		view := viewOfDB(db)
		var rows []Row
		cur := view.Cursor(nil)
		for b := cur.Next(333); b != nil; b = cur.Next(333) {
			rows = append(rows, b...)
		}
		if int64(len(rows)) != view.NumRows() {
			t.Fatalf("snapshot of %d rows reads %d", view.NumRows(), len(rows))
		}
		if err := check(rows); err != nil {
			t.Fatal(err)
		}
		vecs := make([]*Vector, 2)
		cur, rows = view.Cursor(nil), nil
		for n := cur.NextVectors([]int{0, 1}, vecs); n > 0; n = cur.NextVectors([]int{0, 1}, vecs) {
			for r := 0; r < n; r++ {
				rows = append(rows, Row{vecs[0].Value(r), vecs[1].Value(r)})
			}
		}
		if int64(len(rows)) != view.NumRows() {
			t.Fatalf("snapshot of %d rows reads %d vector rows", view.NumRows(), len(rows))
		}
		if err := check(rows); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-failed:
		t.Fatal(err)
	default:
	}
	if n := tbl.NumRows(); n != 25150 {
		t.Fatalf("%d rows appended, want 25150", n)
	}
}
