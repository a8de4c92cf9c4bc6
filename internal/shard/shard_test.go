package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/sqlgen"
	"quarry/internal/xlm"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{0, 1}, true},
		{Spec{2, 3}, true},
		{Spec{0, 0}, false},
		{Spec{-1, 2}, false},
		{Spec{2, 2}, false},
		{Spec{0, -1}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v): got err=%v, want ok=%v", c.spec, err, c.ok)
		}
	}
	if (Spec{}).Enabled() {
		t.Error("zero spec must not be Enabled")
	}
	if !(Spec{Index: 1, Count: 2}).Enabled() {
		t.Error("1/2 must be Enabled")
	}
	if got := (Spec{Index: 1, Count: 4}).String(); got != "1/4" {
		t.Errorf("String = %q", got)
	}
}

// Owner must cover all shards, never go out of range, and treat
// numerically equal ints and floats identically (an ETL run may load a
// key as int where another types it float).
func TestOwnerDeterministicAndTypeStable(t *testing.T) {
	for count := 1; count <= 8; count++ {
		s := Spec{Index: 0, Count: count}
		hit := make([]bool, count)
		for i := int64(0); i < 1000; i++ {
			o := s.Owner(expr.Int(i))
			if o < 0 || o >= count {
				t.Fatalf("count=%d key=%d: owner %d out of range", count, i, o)
			}
			hit[o] = true
			if fo := s.Owner(expr.Float(float64(i))); fo != o {
				t.Fatalf("count=%d key=%d: int owner %d != float owner %d", count, i, o, fo)
			}
		}
		if count > 1 {
			for i, h := range hit {
				if !h {
					t.Errorf("count=%d: shard %d owns no key in 0..999", count, i)
				}
			}
		}
		// NULL keys are owned by exactly one deterministic shard.
		if a, b := s.Owner(expr.Null()), s.Owner(expr.Null()); a != b {
			t.Fatalf("NULL ownership not deterministic: %d vs %d", a, b)
		}
	}
}

func factDef() sqlgen.TableDef {
	return sqlgen.TableDef{
		Name: "fact_sales",
		Columns: []xlm.Field{
			{Name: "cust_id"}, {Name: "amount"},
		},
		ForeignKeys: []sqlgen.ForeignKey{
			{Column: "cust_id", RefTable: "dim_customer", RefColumn: "cust_id"},
			{Column: "part_id", RefTable: "dim_part", RefColumn: "part_id"},
		},
	}
}

func TestKeyColumnAndPartitionKeys(t *testing.T) {
	fact := factDef()
	dim := sqlgen.TableDef{Name: "dim_customer"}
	if got := KeyColumn(&fact); got != "cust_id" {
		t.Errorf("KeyColumn(fact) = %q, want first FK column", got)
	}
	if got := KeyColumn(&dim); got != "" {
		t.Errorf("KeyColumn(dim) = %q, want empty", got)
	}
	keys := PartitionKeys([]sqlgen.TableDef{fact, dim})
	if len(keys) != 1 || keys["fact_sales"] != "cust_id" {
		t.Errorf("PartitionKeys = %v", keys)
	}
}

func TestLoadFilter(t *testing.T) {
	keys := map[string]string{"fact_sales": "cust_id"}

	if lf := (Spec{}).LoadFilter(keys); lf != nil {
		t.Fatal("disabled spec must return a nil hook")
	}

	const count = 3
	// Dimensions pass through unfiltered on every shard.
	for idx := 0; idx < count; idx++ {
		lf := Spec{Index: idx, Count: count}.LoadFilter(keys)
		pred, err := lf("dim_customer", []string{"cust_id", "name"})
		if err != nil || pred != nil {
			t.Fatalf("shard %d: dimension must load unfiltered, got pred=%t err=%v", idx, pred != nil, err)
		}
	}

	// A fact whose layout lacks the key column must refuse to load.
	lf := Spec{Index: 0, Count: count}.LoadFilter(keys)
	if _, err := lf("fact_sales", []string{"amount", "qty"}); err == nil {
		t.Fatal("missing partition-key column must be an error, not a full load")
	}

	// Across all shards, every row is kept by exactly one.
	preds := make([]func([]expr.Value) bool, count)
	for idx := 0; idx < count; idx++ {
		p, err := Spec{Index: idx, Count: count}.LoadFilter(keys)("fact_sales", []string{"amount", "cust_id"})
		if err != nil || p == nil {
			t.Fatalf("shard %d: fact filter: pred=%t err=%v", idx, p != nil, err)
		}
		preds[idx] = p
	}
	for i := int64(0); i < 500; i++ {
		row := []expr.Value{expr.Float(float64(i) * 1.5), expr.Int(i % 97)}
		owners := 0
		for idx := 0; idx < count; idx++ {
			if preds[idx](row) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("row with key %d kept by %d shards, want exactly 1", i%97, owners)
		}
	}
}

func TestValueWireRoundTrip(t *testing.T) {
	vals := []expr.Value{
		expr.Null(),
		expr.Int(-42),
		expr.Float(3.5),
		expr.Float(math.Inf(-1)),
		expr.Float(math.Copysign(0, -1)),
		expr.Str("FRANCE"),
		expr.Bool(true),
		expr.Bool(false),
	}
	for _, v := range vals {
		w := EncodeValue(v)
		// Through JSON, like the real protocol.
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var w2 ValueWire
		if err := json.Unmarshal(b, &w2); err != nil {
			t.Fatalf("unmarshal %v: %v", v, err)
		}
		got, err := w2.Decode()
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if got.Kind() != v.Kind() {
			t.Fatalf("kind changed: %v -> %v", v.Kind(), got.Kind())
		}
		if v.Kind() == expr.KindFloat {
			f1, _ := v.AsFloat()
			f2, _ := got.AsFloat()
			if math.Float64bits(f1) != math.Float64bits(f2) {
				t.Fatalf("float bits changed: %x -> %x", math.Float64bits(f1), math.Float64bits(f2))
			}
		} else if got.String() != v.String() {
			t.Fatalf("value changed: %v -> %v", v, got)
		}
	}
	// NaN round-trips with its bit pattern intact (JSON float text
	// could never carry it at all).
	nan := EncodeValue(expr.Float(math.NaN()))
	back, err := nan.Decode()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := back.AsFloat()
	if !math.IsNaN(f) {
		t.Fatal("NaN did not survive the wire")
	}

	if _, err := (ValueWire{Kind: "decimal128"}).Decode(); err == nil {
		t.Fatal("unknown kind must be a decode error")
	}
}

// partialFromRows folds rows into an aggregator and exports/imports
// its states through the wire, returning what a gather would absorb.
func wireTrip(t *testing.T, resp *PartialResponse) *PartialResponse {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back PartialResponse
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	return &back
}

func aggOver(t *testing.T, rows [][]expr.Value) *engine.HashAggregator {
	t.Helper()
	aggs := []xlm.AggSpec{
		{Out: "n", Func: "COUNT"},
		{Out: "total", Func: "SUM", Col: "amount"},
		{Out: "avg_amt", Func: "AVG", Col: "amount"},
		{Out: "units", Func: "SUM", Col: "qty"},
		{Out: "first", Func: "MIN", Col: "tag"},
		{Out: "last", Func: "MAX", Col: "tag"},
	}
	agg, err := engine.NewHashAggregator([]int{0}, aggs, []int{-1, 1, 1, 2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(rows); err != nil {
		t.Fatal(err)
	}
	return agg
}

func testAggSpecs() []xlm.AggSpec {
	return []xlm.AggSpec{
		{Out: "n", Func: "COUNT"},
		{Out: "total", Func: "SUM"},
		{Out: "avg_amt", Func: "AVG"},
		{Out: "units", Func: "SUM"},
		{Out: "first", Func: "MIN"},
		{Out: "last", Func: "MAX"},
	}
}

func testRows(n int) [][]expr.Value {
	rows := make([][]expr.Value, n)
	for i := 0; i < n; i++ {
		// Awkward floats on purpose: exactness must not depend on nice
		// values. Group key cycles through 4 groups incl. NULL (one
		// kind + NULL, like a real column).
		var g expr.Value
		switch i % 4 {
		case 0:
			g = expr.Str("alpha")
		case 1:
			g = expr.Str("beta")
		case 2:
			g = expr.Str("gamma")
		default:
			g = expr.Null()
		}
		rows[i] = []expr.Value{
			g,
			expr.Float(0.1*float64(i) + 1e15 - float64(i%3)*1e15),
			expr.Int(int64(i % 11)),
			expr.Str(fmt.Sprintf("t%03d", i*37%200)),
		}
	}
	return rows
}

// The core protocol property: partition rows any way at all, export
// each part's partials through JSON, merge — bytes match the
// single-fold answer.
func TestMergeByteIdentity(t *testing.T) {
	rows := testRows(400)
	columns := []string{"g", "n", "total", "avg_amt", "units", "first", "last"}

	oracle := engine.SortRowsBy(aggOver(t, rows).Result(), []int{0})

	for count := 1; count <= 5; count++ {
		parts := make([][][]expr.Value, count)
		for i, row := range rows {
			s := i % count // any deterministic partition works
			parts[s] = append(parts[s], row)
		}
		resps := make([]*PartialResponse, count)
		for s := 0; s < count; s++ {
			agg := aggOver(t, parts[s])
			resps[s] = wireTrip(t, EncodePartial(s, count, 42, columns, 1, testAggSpecs(), agg.Partials()))
		}
		gotCols, gotRows, epoch, err := Merge(resps)
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		if epoch != 42 {
			t.Fatalf("count=%d: epoch %d", count, epoch)
		}
		if strings.Join(gotCols, ",") != strings.Join(columns, ",") {
			t.Fatalf("count=%d: columns %v", count, gotCols)
		}
		if len(gotRows) != len(oracle) {
			t.Fatalf("count=%d: %d rows, oracle has %d", count, len(gotRows), len(oracle))
		}
		for r := range oracle {
			for c := range oracle[r] {
				w, g := oracle[r][c], gotRows[r][c]
				if w.Kind() != g.Kind() {
					t.Fatalf("count=%d row %d col %d: kind %v vs %v", count, r, c, g.Kind(), w.Kind())
				}
				if w.Kind() == expr.KindFloat {
					wf, _ := w.AsFloat()
					gf, _ := g.AsFloat()
					if math.Float64bits(wf) != math.Float64bits(gf) {
						t.Fatalf("count=%d row %d col %d: float bits %x vs %x", count, r, c, math.Float64bits(gf), math.Float64bits(wf))
					}
				} else if w.String() != g.String() {
					t.Fatalf("count=%d row %d col %d: %v vs %v", count, r, c, g, w)
				}
			}
		}
	}
}

// Global aggregate (no GROUP BY) over zero rows: every shard exports
// zero groups and the merge must inject the single zero-row exactly
// once — not once per shard, not zero times. The same holds one level
// down, where the materialized-aggregate store hands
// engine.FinalizePartials the groups its filter loop kept: a global
// aggregate whose every group was filtered out is one empty batch.
func TestMergeGlobalAggregateZeroRows(t *testing.T) {
	columns := []string{"n", "total"}
	aggs := []xlm.AggSpec{{Out: "n", Func: "COUNT"}, {Out: "total", Func: "SUM"}}
	resps := make([]*PartialResponse, 3)
	for s := 0; s < 3; s++ {
		agg, err := engine.NewHashAggregator(nil, aggs, []int{-1, 0})
		if err != nil {
			t.Fatal(err)
		}
		resps[s] = wireTrip(t, EncodePartial(s, 3, 7, columns, 0, aggs, agg.Partials()))
		if len(resps[s].Groups) != 0 {
			t.Fatalf("shard %d exported %d groups for zero rows", s, len(resps[s].Groups))
		}
	}
	_, merged, _, err := Merge(resps)
	if err != nil {
		t.Fatal(err)
	}
	filteredOut, err := engine.FinalizePartials(0, aggs, []engine.AggPartial{})
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string][][]expr.Value{"three empty shards": merged, "every group filtered out": filteredOut} {
		if len(rows) != 1 {
			t.Fatalf("%s: global aggregate over zero rows: %d rows, want 1", name, len(rows))
		}
		if rows[0][0].String() != "0" || !rows[0][1].IsNull() {
			t.Fatalf("%s: zero-row result = %v, want [0 NULL]", name, rows[0])
		}
	}
}

func validResps(t *testing.T, count int, epoch uint64) []*PartialResponse {
	t.Helper()
	rows := testRows(60)
	columns := []string{"g", "n", "total", "avg_amt", "units", "first", "last"}
	resps := make([]*PartialResponse, count)
	for s := 0; s < count; s++ {
		var part [][]expr.Value
		for i, row := range rows {
			if i%count == s {
				part = append(part, row)
			}
		}
		agg := aggOver(t, part)
		resps[s] = EncodePartial(s, count, epoch, columns, 1, testAggSpecs(), agg.Partials())
	}
	return resps
}

func TestMergeRejectsSkew(t *testing.T) {
	wantSkew := func(name string, resps []*PartialResponse) {
		t.Helper()
		_, _, _, err := Merge(resps)
		if err == nil {
			t.Fatalf("%s: merge accepted skewed answers", name)
		}
		if !errors.Is(err, ErrEpochSkew) {
			t.Fatalf("%s: error %v is not ErrEpochSkew", name, err)
		}
	}

	r := validResps(t, 3, 10)
	r[2].Epoch = 11
	wantSkew("epoch mismatch", r)

	r = validResps(t, 3, 10)
	wantSkew("missing shard", r[:2])

	r = validResps(t, 3, 10)
	r[1], r[2] = r[2], r[1]
	wantSkew("out-of-order indexes", r)

	r = validResps(t, 3, 10)
	r[1].ShardCount = 4
	wantSkew("count mismatch", r)

	r = validResps(t, 3, 10)
	r[1].Columns = append([]string{}, r[1].Columns...)
	r[1].Columns[0] = "renamed"
	wantSkew("column rename", r)

	r = validResps(t, 3, 10)
	r[1].Aggs[1].Func = "MIN"
	wantSkew("aggregate mismatch", r)

	if _, _, _, err := Merge(nil); err == nil {
		t.Fatal("empty merge must fail")
	}
	r = validResps(t, 3, 10)
	r[1] = nil
	if _, _, _, err := Merge(r); err == nil {
		t.Fatal("nil response must fail")
	}

	// And the happy path still merges.
	r = validResps(t, 3, 10)
	if _, _, _, err := Merge(r); err != nil {
		t.Fatalf("valid responses failed to merge: %v", err)
	}
}

// Malformed wire groups (arity lies) must be decode errors.
func TestDecodeGroupsValidatesArity(t *testing.T) {
	r := validResps(t, 1, 1)[0]
	r.Groups[0].Key = append(r.Groups[0].Key, ValueWire{Kind: "int"})
	if _, err := r.DecodeGroups(); err == nil {
		t.Fatal("extra key value must be a decode error")
	}
	r = validResps(t, 1, 1)[0]
	r.Groups[0].Measures = r.Groups[0].Measures[:2]
	if _, err := r.DecodeGroups(); err == nil {
		t.Fatal("missing measures must be a decode error")
	}
}
