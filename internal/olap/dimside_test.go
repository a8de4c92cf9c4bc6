package olap

import (
	"context"
	"fmt"
	"math"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// sideOver builds the dimSide of a one-attribute dimension holding the
// given keys, on a memory table or on checkpointed disk pages.
func sideOver(t *testing.T, disk bool, keyType string, keys []expr.Value) *dimSide {
	t.Helper()
	db := storage.NewMemDB()
	if disk {
		var err error
		if db, err = storage.Open(t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := db.CreateTable("dim", []storage.Column{{Name: "k", Type: keyType}, {Name: "attr", Type: "int"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := tbl.Insert(storage.Row{k, expr.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("dim")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("dim")
	d, err := buildDimSide(context.Background(), view, &starJoin{refCol: "k", buildCols: []string{"attr"}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// matches walks a key's chain.
func (d *dimSide) matches(k expr.Value) []int32 {
	var rows []int32
	for r := d.first(k); r >= 0; r = d.after(r) {
		rows = append(rows, r)
	}
	return rows
}

// TestDimSideIndexKinds holds each key index representation to the one
// rule both stand in for — a foreign key joins the dimension rows whose
// key is Value.Equal to it, in insertion order — and pins which
// representation a key column gets: the dense array for int keys that
// span little more than their count strictly inside ±2⁵³, the code map
// for every other key.
func TestDimSideIndexKinds(t *testing.T) {
	ints := func(ks ...int64) []expr.Value {
		out := make([]expr.Value, len(ks))
		for i, k := range ks {
			out[i] = expr.Int(k)
		}
		return out
	}
	probes := []expr.Value{
		expr.Null(), expr.Int(0), expr.Float(math.Copysign(0, -1)), expr.Int(3), expr.Float(3), expr.Float(2.5), expr.Int(105),
		expr.Float(105), expr.Int(-7), expr.Int(5_000_000), expr.Int(1 << 53), expr.Int(1<<53 + 1), expr.Float(1 << 53),
		expr.Int(-(1 << 53)), expr.Int(math.MinInt64), expr.Int(math.MaxInt64), expr.Float(math.NaN()), expr.Float(math.Inf(1)),
		expr.Str("3"), expr.Str("x"), expr.Str(""), expr.Bool(true), expr.Bool(false),
	}
	cases := []struct {
		name    string
		keyType string
		keys    []expr.Value
		dense   bool
	}{
		{"dense int", "int", append(ints(105, 103, 100, 105, 139, 103, 105), expr.Null()), true},
		{"dense int around zero", "int", ints(-7, 0, 3, 3, -7), true},
		{"sparse int", "int", ints(5_000_000, 0, 3, 10_000_000, 3), false},
		{"int at 2^53", "int", ints(1<<53-1, 1<<53, 1<<53+1, 1<<53-2), false},
		{"int at -2^53", "int", ints(-(1 << 53), -(1<<53 - 1)), false},
		{"int extremes", "int", ints(math.MinInt64, math.MaxInt64, 0), false},
		{"float", "float", []expr.Value{expr.Float(3), expr.Float(2.5), expr.Float(math.NaN()), expr.Float(math.Copysign(0, -1)),
			expr.Float(3), expr.Float(1 << 53), expr.Null(), expr.Float(math.Inf(1))}, false},
		{"string", "string", []expr.Value{expr.Str("x"), expr.Str("3"), expr.Null(), expr.Str("x"), expr.Str("")}, false},
		{"bool", "bool", []expr.Value{expr.Bool(true), expr.Bool(false), expr.Bool(true)}, false},
		{"empty", "int", nil, false},
	}
	for _, tc := range cases {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/disk=%v", tc.name, disk), func(t *testing.T) {
				d := sideOver(t, disk, tc.keyType, tc.keys)
				if (d.dense != nil) != tc.dense || (d.heads != nil) == tc.dense {
					t.Fatalf("dense index: %v, code map: %v; want dense=%v", d.dense != nil, d.heads != nil, tc.dense)
				}
				for _, probe := range append(probes, tc.keys...) {
					var want []int32
					for r, k := range tc.keys {
						if k.Equal(probe) && !k.IsNull() {
							want = append(want, int32(r))
						}
					}
					if got := d.matches(probe); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("key %s joins rows %v, want %v", probe, got, want)
					}
				}
			})
		}
	}
}

// TestDimSideLookupVectors runs the vector form of the lookup — typed
// loops for int and float foreign keys, one lookup per dictionary entry
// for strings and bools, NULLs matching nothing — against the per-value
// lookup, for every pairing of foreign-key type and key index.
func TestDimSideLookupVectors(t *testing.T) {
	sides := map[string]*dimSide{
		"dense":  sideOver(t, true, "int", []expr.Value{expr.Int(3), expr.Int(0), expr.Int(5), expr.Int(3)}),
		"sparse": sideOver(t, true, "int", []expr.Value{expr.Int(3), expr.Int(0), expr.Int(1 << 40)}),
		"float":  sideOver(t, true, "float", []expr.Value{expr.Float(3), expr.Float(0.5), expr.Float(0)}),
		"string": sideOver(t, true, "string", []expr.Value{expr.Str("3"), expr.Str("a"), expr.Str("a")}),
		"bool":   sideOver(t, true, "bool", []expr.Value{expr.Bool(false), expr.Bool(true)}),
		"empty":  sideOver(t, true, "int", nil),
	}
	fks := map[string][]expr.Value{
		"int":    {expr.Int(3), expr.Null(), expr.Int(0), expr.Int(1 << 40), expr.Int(7), expr.Int(-1), expr.Int(5)},
		"float":  {expr.Float(3), expr.Float(0.5), expr.Null(), expr.Float(math.NaN()), expr.Float(math.Copysign(0, -1)), expr.Float(1 << 40)},
		"string": {expr.Str("a"), expr.Null(), expr.Str("3"), expr.Str("zz")},
		"bool":   {expr.Bool(true), expr.Null(), expr.Bool(false)},
		"nulls":  {expr.Null(), expr.Null()},
	}
	for fkType, vals := range fks {
		colType := fkType
		if fkType == "nulls" {
			colType = "string" // an all-NULL chunk: codes without a dictionary
		}
		db := storage.NewMemDB()
		tbl, err := db.CreateTable("fact", []storage.Column{{Name: "fk", Type: colType}})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if err := tbl.Insert(storage.Row{v}); err != nil {
				t.Fatal(err)
			}
		}
		snap, _ := db.Snapshot("fact")
		view, _ := snap.Table("fact")
		vecs := make([]*storage.Vector, 1)
		if n := view.Cursor(nil).NextVectors([]int{0}, vecs); n != len(vals) {
			t.Fatalf("%d rows in the chunk, want %d", n, len(vals))
		}
		for name, d := range sides {
			out := make([]int32, len(vals))
			var scratch []int32
			d.lookup(vecs[0], out, &scratch)
			for i, v := range vals {
				if want := d.first(v); out[i] != want {
					t.Errorf("%s key index, %s foreign key %s: vector lookup says row %d, value lookup %d", name, fkType, v, out[i], want)
				}
			}
		}
	}
}
