package olap

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/storage"
)

// sideOver builds the build side of a one-attribute dimension holding
// the given keys, on a memory table or on checkpointed disk pages.
func sideOver(t *testing.T, disk bool, keyType string, keys []expr.Value) *engine.JoinIndex {
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

// matches looks one key up and walks its chain.
func matches(d *engine.JoinIndex, k expr.Value) []int32 {
	first := make([]int32, 1)
	d.Probe().Lookup(1, []*storage.Vector{storage.VectorOf([]expr.Value{k})}, first)
	var rows []int32
	for r := first[0]; r >= 0; r = d.After(r) {
		rows = append(rows, r)
	}
	return rows
}

// joined is the rule every index stands in for: the rows whose key is
// equal to k, in insertion order — numbers by their exact values
// (exactOf), NaN and NULL joining nothing.
func joined(keys []expr.Value, k expr.Value) []int32 {
	var want []int32
	for r, key := range keys {
		x, y := exactOf(key), exactOf(k)
		if x != nil && y != nil && x.Cmp(y) == 0 || !key.IsNumeric() && !key.IsNull() && key.Equal(k) {
			want = append(want, int32(r))
		}
	}
	return want
}

// exactOf is a number's exact value, written apart from expr through
// math/big; nil for NaN and for what is no number.
func exactOf(v expr.Value) *big.Float {
	if v.Kind() == expr.KindInt {
		return new(big.Float).SetInt64(v.AsInt())
	}
	if f, ok := v.AsFloat(); ok && f == f {
		return big.NewFloat(f)
	}
	return nil
}

// TestDimSideIndexKinds holds each key index representation to the one
// rule both stand in for — a foreign key joins the dimension rows whose
// key is Value.Equal to it, in insertion order — and pins which
// representation a key column gets: the dense array for int keys that
// span little more than their count, wherever they lie (ints beside
// 2⁵³ are as exact as any), the code map for every other key.
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
		{"sparse int with NULL", "int", append(ints(5_000_000, 7), expr.Null()), false},
		{"float with NULL", "float", []expr.Value{expr.Float(2.5), expr.Null()}, false},
		{"int at 2^53", "int", ints(1<<53-1, 1<<53, 1<<53+1, 1<<53-2), true},
		{"int at -2^53", "int", ints(-(1 << 53), -(1<<53 - 1), -(1<<53 + 1)), true},
		{"sparse int at 2^53", "int", ints(1<<53, 1<<53+1, 1<<53+1_000_000), false},
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
				if d.Dense() != tc.dense {
					t.Fatalf("dense index: %v, want %v", d.Dense(), tc.dense)
				}
				for _, probe := range append(probes, tc.keys...) {
					want := joined(tc.keys, probe)
					if got := matches(d, probe); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("key %s joins rows %v, want %v", probe, got, want)
					}
				}
			})
		}
	}
}

// TestDimSideLookupVectors runs the vector form of the lookup — typed
// loops for int and float foreign keys, one lookup per dictionary entry
// for strings and bools, NULLs matching nothing — against the rule, for
// every pairing of foreign-key type and key index.
func TestDimSideLookupVectors(t *testing.T) {
	keys := map[string][]expr.Value{
		"dense":  {expr.Int(3), expr.Int(0), expr.Int(5), expr.Int(3)},
		"sparse": {expr.Int(3), expr.Int(0), expr.Int(1 << 40)},
		"float":  {expr.Float(3), expr.Float(0.5), expr.Float(0)},
		"string": {expr.Str("3"), expr.Str("a"), expr.Str("a")},
		"bool":   {expr.Bool(false), expr.Bool(true)},
		"empty":  nil,
	}
	types := map[string]string{"dense": "int", "sparse": "int", "float": "float", "string": "string", "bool": "bool", "empty": "int"}
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
		for name, ks := range keys {
			out := make([]int32, len(vals))
			sideOver(t, true, types[name], ks).Probe().Lookup(len(vals), vecs, out)
			for i, v := range vals {
				want := int32(-1)
				if rows := joined(ks, v); rows != nil {
					want = rows[0]
				}
				if out[i] != want {
					t.Errorf("%s key index, %s foreign key %s: vector lookup says row %d, want %d", name, fkType, v, out[i], want)
				}
			}
		}
	}
}
