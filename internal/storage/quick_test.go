package storage

// The paged store against a model that holds rows: random sequences of
// catalog and row operations run on a database without a directory and
// on one with, both compacting past two segments, and after every step
// each read path of each database must give back exactly the model's
// rows — and a snapshot taken before the step the model's rows from
// before it.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"quarry/internal/expr"
)

// modelTable is one table of the model: its columns and all its rows,
// committed or not.
type modelTable struct {
	cols []Column
	rows []Row
}

// model is the row-holding reference: tables by name. It never shares
// a row slice between two states, so an old state stays intact.
type model map[string]modelTable

func (m model) clone() model {
	out := make(model, len(m))
	for name, mt := range m {
		out[name] = modelTable{cols: mt.cols, rows: slices.Clip(mt.rows)}
	}
	return out
}

// quickOp is one generated operation, as data: each database builds its
// own table objects from it.
type quickOp struct {
	kind    string // create, insert, insertAll, commitRun, attach, checkpoint
	name    string
	cols    []Column
	rows    []Row
	replace []modelTableNamed // commitRun: staged replace tables
	appends []modelTableNamed // commitRun: deltas, by target name
	from    string            // attach: "staging", "heap" or "disk" (a frozen view of a database of that kind)
}

type modelTableNamed struct {
	name string
	modelTable
}

var quickSchemas = [][]Column{
	{{Name: "i", Type: "int"}, {Name: "f", Type: "float"}, {Name: "s", Type: "string"}, {Name: "b", Type: "bool"}},
	{{Name: "s", Type: "string"}, {Name: "i", Type: "int"}},
	{{Name: "f", Type: "float"}},
}

var quickNames = []string{"a", "b", "c", "d"}

// quickValue draws a value of the column's type, edge cases often.
func quickValue(rng *rand.Rand, typ string) expr.Value {
	if rng.Intn(8) == 0 {
		return expr.Null()
	}
	switch typ {
	case "int":
		return expr.Int([]int64{rng.Int63n(20), -rng.Int63n(1 << 40), math.MaxInt64, math.MinInt64}[rng.Intn(4)])
	case "float":
		return expr.Float([]float64{float64(rng.Intn(50)) / 4, math.NaN(),
			math.Float64frombits(0x7ff8000000000000 | uint64(rng.Intn(9))), 0, math.Copysign(0, -1),
			math.Inf(1), math.Inf(-1)}[rng.Intn(7)])
	case "string":
		switch rng.Intn(20) {
		case 0:
			return expr.Str("")
		case 1, 2:
			return expr.Str(strings.Repeat("long", 40+rng.Intn(40))) // past zoneMaxStr
		case 3:
			if rng.Intn(10) == 0 {
				return expr.Str(strings.Repeat("x", pageSize+rng.Intn(100))) // a page of its own
			}
		}
		return expr.Str(fmt.Sprintf("v%d", rng.Intn(30)))
	}
	return expr.Bool(rng.Intn(2) == 0)
}

// quickRows draws up to max rows (exactly max when max is 1).
func quickRows(rng *rand.Rand, cols []Column, max int) []Row {
	n := max
	if max > 1 {
		n = rng.Intn(max + 1)
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, len(cols))
		for ci, c := range cols {
			rows[i][ci] = quickValue(rng, c.Type)
		}
	}
	return rows
}

// genOp draws an operation valid — or deliberately invalid, for create
// and attach — against the model.
func genOp(rng *rand.Rand, m model) quickOp {
	live := make([]string, 0, len(m))
	for _, name := range quickNames {
		if _, ok := m[name]; ok {
			live = append(live, name)
		}
	}
	schema := func() []Column { return quickSchemas[rng.Intn(len(quickSchemas))] }
	kinds := []string{"create", "attach", "commitRun", "checkpoint"}
	if len(live) > 0 {
		kinds = append(kinds, "insert", "insertAll", "insertAll", "commitRun")
	}
	op := quickOp{kind: kinds[rng.Intn(len(kinds))], name: quickNames[rng.Intn(len(quickNames))]}
	if len(live) > 0 && op.kind != "create" && op.kind != "attach" {
		op.name = live[rng.Intn(len(live))]
	}
	switch op.kind {
	case "create":
		op.cols = schema()
	case "attach":
		op.cols = schema()
		op.rows = quickRows(rng, op.cols, 700)
		op.from = []string{"staging", "heap", "disk"}[rng.Intn(3)]
	case "insert":
		op.rows = quickRows(rng, m[op.name].cols, 1)
	case "insertAll":
		op.rows = quickRows(rng, m[op.name].cols, 300)
	case "commitRun":
		seen := map[string]bool{}
		for n := rng.Intn(3); n > 0; n-- {
			name := quickNames[rng.Intn(len(quickNames))]
			if seen[name] {
				continue
			}
			seen[name] = true
			cols := schema()
			op.replace = append(op.replace, modelTableNamed{name, modelTable{cols, quickRows(rng, cols, 500)}})
		}
		// Deltas into live tables — some of which this same run replaces.
		for n := rng.Intn(3); n > 0 && len(live) > 0; n-- {
			name := live[rng.Intn(len(live))]
			op.appends = append(op.appends, modelTableNamed{name, modelTable{m[name].cols, quickRows(rng, m[name].cols, 200)}})
		}
	}
	return op
}

// applyModel applies op to the model and reports whether the database
// must refuse it.
func applyModel(m model, op quickOp) (refused bool) {
	switch op.kind {
	case "create", "attach":
		if _, ok := m[op.name]; ok {
			return true
		}
		m[op.name] = modelTable{cols: op.cols, rows: slices.Clip(op.rows)}
	case "insert", "insertAll":
		mt := m[op.name]
		mt.rows = append(slices.Clip(mt.rows), op.rows...)
		m[op.name] = mt
	case "commitRun":
		replaced := map[string]bool{}
		for _, r := range op.replace {
			m[r.name] = modelTable{cols: r.cols, rows: slices.Clip(r.rows)}
			replaced[r.name] = true
		}
		for _, a := range op.appends {
			if !replaced[a.name] { // the delta's target is dead
				mt := m[a.name]
				mt.rows = append(slices.Clip(mt.rows), a.rows...)
				m[a.name] = mt
			}
		}
	}
	return false
}

// applyDB applies op to db.
func applyDB(t *testing.T, db *DB, op quickOp) error {
	staging := func(name string, cols []Column, rows []Row) *Table {
		tbl, err := NewStagingTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.InsertAll(rows); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	live := func() *Table {
		tbl, ok := db.Table(op.name)
		if !ok {
			t.Fatalf("table %s missing", op.name)
		}
		return tbl
	}
	switch op.kind {
	case "create":
		_, err := db.CreateTable(op.name, op.cols)
		return err
	case "attach":
		if op.from == "staging" {
			return db.Attach(staging(op.name, op.cols, op.rows))
		}
		// A frozen view of another database: committed pages and a tail.
		src := NewMemDB()
		if op.from == "disk" {
			src = openDisk(t, t.TempDir())
		}
		tbl, err := src.CreateTable(op.name, op.cols)
		if err != nil {
			t.Fatal(err)
		}
		half := len(op.rows) / 2
		if err := tbl.InsertAll(op.rows[:half]); err != nil {
			t.Fatal(err)
		}
		if err := src.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := tbl.InsertAll(op.rows[half:]); err != nil {
			t.Fatal(err)
		}
		return db.Attach(viewOf(t, src, op.name).Freeze())
	case "insert":
		return live().Insert(op.rows[0])
	case "insertAll":
		return live().InsertAll(op.rows)
	case "commitRun":
		var tables []*Table
		for _, r := range op.replace {
			tables = append(tables, staging(r.name, r.cols, r.rows))
		}
		var appends []AppendDelta
		for _, a := range op.appends {
			target, _ := db.Table(a.name)
			appends = append(appends, AppendDelta{Target: target, Delta: staging(a.name, a.cols, a.rows)})
		}
		return db.CommitRun(tables, appends)
	case "checkpoint":
		return db.Checkpoint()
	}
	t.Fatalf("unknown op %q", op.kind)
	return nil
}

// sameRows reports whether got holds exactly want's values, bit
// for bit and kind for kind.
func sameRows(got, want []Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for ci := range want[i] {
			if !valIdentical(got[i][ci], want[i][ci]) {
				return fmt.Errorf("row %d column %d: %s, want %s", i, ci, got[i][ci], want[i][ci])
			}
		}
	}
	return nil
}

// readView reads a view through the cursor, rows and vectors, checking
// both agree, and returns the rows.
func readView(v *TableView, rng *rand.Rand) ([]Row, error) {
	var rows []Row
	cur := v.Cursor(nil)
	for b := cur.Next(1 + rng.Intn(700)); b != nil; b = cur.Next(1 + rng.Intn(700)) {
		rows = append(rows, b...)
	}
	all := make([]int, len(v.cols))
	for ci := range all {
		all[ci] = ci
	}
	var fromVecs []Row
	vecs := make([]*Vector, len(all))
	cur = v.Cursor(nil)
	for n := cur.NextVectors(all, vecs); n > 0; n = cur.NextVectors(all, vecs) {
		for r := 0; r < n; r++ {
			row := make(Row, len(all))
			for ci, vec := range vecs {
				row[ci] = vec.Value(r)
			}
			fromVecs = append(fromVecs, row)
		}
	}
	if err := sameRows(fromVecs, rows); err != nil {
		return nil, fmt.Errorf("NextVectors vs Next: %w", err)
	}
	return rows, nil
}

// checkAgainst holds every read path of db to the model.
func checkAgainst(db *DB, m model, rng *rand.Rand) error {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	if got := db.TableNames(); !slices.Equal(got, names) {
		return fmt.Errorf("tables %v, want %v", got, names)
	}
	snap, err := db.Snapshot(names...)
	if err != nil {
		return err
	}
	for _, name := range names {
		want := m[name]
		tbl, _ := db.Table(name)
		if !slices.Equal(tbl.Columns, want.cols) {
			return fmt.Errorf("%s: columns %v, want %v", name, tbl.Columns, want.cols)
		}
		if err := sameRows(tbl.Rows(), want.rows); err != nil {
			return fmt.Errorf("%s: Rows: %w", name, err)
		}
		if pg, _ := tbl.capture(); pg != nil && len(pg.segs) > compactSegments {
			return fmt.Errorf("%s: %d segments, past the threshold of %d", name, len(pg.segs), compactSegments)
		}
		var batched []Row
		size := 1 + rng.Intn(900)
		for b := tbl.ReadBatch(0, size); b != nil; b = tbl.ReadBatch(len(batched), size) {
			if len(b) != min(size, len(want.rows)-len(batched)) {
				return fmt.Errorf("%s: ReadBatch(%d, %d) returned %d rows", name, len(batched), size, len(b))
			}
			batched = append(batched, b...)
		}
		if err := sameRows(batched, want.rows); err != nil {
			return fmt.Errorf("%s: ReadBatch: %w", name, err)
		}
		view, _ := snap.Table(name)
		viewed, err := readView(view, rng)
		if err == nil {
			err = sameRows(viewed, want.rows)
		}
		if err != nil {
			return fmt.Errorf("%s: cursor: %w", name, err)
		}
	}
	return nil
}

// TestQuickPagedMatchesTail: the paged store, with a directory and
// without, against the row-holding model, through every operation that
// changes a catalog or a table, with auto-compaction firing at a
// threshold of two segments. At the end the directory, reopened, holds
// the model too.
func TestQuickPagedMatchesTail(t *testing.T) {
	setCompactSegments(t, 2)
	seqs, steps := 20, 30
	if testing.Short() {
		seqs = 4
	}
	for seq := 0; seq < seqs; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		dir := t.TempDir()
		dbs := map[string]*DB{"heap": NewMemDB(), "disk": openDisk(t, dir)}
		m := model{}
		var trail []string
		for step := 0; step < steps; step++ {
			op := genOp(rng, m)
			trail = append(trail, op.kind+" "+op.name)
			before := m.clone()
			refused := applyModel(m, op)
			for kind, db := range dbs {
				snap, err := db.Snapshot(db.TableNames()...)
				if err != nil {
					t.Fatal(err)
				}
				if err := applyDB(t, db, op); (err != nil) != refused {
					t.Fatalf("seq %d, %s: %v: err = %v, refusal expected %v", seq, kind, trail, err, refused)
				}
				if err := checkAgainst(db, m, rng); err != nil {
					t.Fatalf("seq %d, %s: after %v: %v", seq, kind, trail, err)
				}
				for name, mt := range before {
					view, _ := snap.Table(name)
					got, err := readView(view, rng)
					if err == nil {
						err = sameRows(got, mt.rows)
					}
					if err != nil {
						t.Fatalf("seq %d, %s: after %v: snapshot of %s from before: %v", seq, kind, trail, name, err)
					}
				}
			}
		}
		if err := dbs["disk"].Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := checkAgainst(openDisk(t, dir), m, rng); err != nil {
			t.Fatalf("seq %d: reopened after %v: %v", seq, trail, err)
		}
	}
}
