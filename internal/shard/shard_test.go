package shard

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/sqlgen"
	"quarry/internal/storage"
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

// TestFrameValueRoundTrip: values of every kind, as key columns typed
// and mixed and as MIN/MAX states, come through the frame with their
// kinds and bits — NaN payloads, −0 and infinities included.
func TestFrameValueRoundTrip(t *testing.T) {
	vals := []expr.Value{
		expr.Null(),
		expr.Int(-42),
		expr.Float(3.5),
		expr.Float(math.Inf(-1)),
		expr.Float(math.Copysign(0, -1)),
		expr.Float(math.Float64frombits(0x7ff8000000000bad)),
		expr.Str("FRANCE"),
		expr.Bool(true),
		expr.Bool(false),
	}
	n := len(vals)
	keys := [][]expr.Value{vals} // the mixed form
	for _, kind := range []expr.Kind{expr.KindInt, expr.KindFloat, expr.KindString, expr.KindBool} {
		col := make([]expr.Value, n)
		for i, v := range vals {
			if v.Kind() == kind {
				col[i] = v
			}
		}
		keys = append(keys, col)
	}
	r := &PartialResponse{ShardCount: 1, Epoch: 3, GroupCols: len(keys),
		Aggs: []AggWire{{"COUNT", "n"}, {"MIN", "lo"}, {"MAX", "hi"}}}
	for j, col := range keys {
		r.Columns = append(r.Columns, fmt.Sprintf("k%d", j))
		r.Groups.Keys = append(r.Groups.Keys, storage.VectorOf(col))
	}
	r.Columns = append(r.Columns, "n", "lo", "hi")
	counts := make([]int64, n)
	r.Groups.N = n
	r.Groups.States = []engine.StateCols{{Counts: counts}, {Counts: counts, Mins: vals}, {Counts: counts, Maxs: vals}}
	frame, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := new(PartialResponse)
	if err := back.UnmarshalBinary(frame); err != nil {
		t.Fatal(err)
	}
	if back.Groups.Keys[0].Kind != expr.KindNull {
		t.Fatalf("the mixed key column came back as %s", back.Groups.Keys[0].Kind)
	}
	for i := range vals {
		for j, col := range keys {
			if got := back.Groups.Keys[j].Value(i); !sameValue(got, col[i]) {
				t.Fatalf("key column %d row %d: %v came back as %v", j, i, col[i], got)
			}
		}
		if !sameValue(back.Groups.States[1].Mins[i], vals[i]) || !sameValue(back.Groups.States[2].Maxs[i], vals[i]) {
			t.Fatalf("row %d: %v came back as MIN %v, MAX %v", i, vals[i], back.Groups.States[1].Mins[i], back.Groups.States[2].Maxs[i])
		}
	}
}

// wireTrip puts a partial answer through the frame, as the gather
// receives it.
func wireTrip(t *testing.T, resp *PartialResponse) *PartialResponse {
	t.Helper()
	b, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back PartialResponse
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	return &back
}

func aggOver(t testing.TB, rows [][]expr.Value) *engine.HashAggregator {
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
// each part's partials through the frame, merge — bytes match the
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
// engine.MergeCells the groups its filter loop kept: a global
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
		if resps[s].Groups.N != 0 {
			t.Fatalf("shard %d exported %d groups for zero rows", s, resps[s].Groups.N)
		}
	}
	_, merged, _, err := Merge(resps)
	if err != nil {
		t.Fatal(err)
	}
	emptyBatch, err := engine.MergeCells(0, aggs, engine.Cells{States: make([]engine.StateCols, len(aggs))})
	if err != nil {
		t.Fatal(err)
	}
	filteredOut, err := emptyBatch.Answer(nil)
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

// TestMergeIntSumOverflow: the gather decides an int SUM's overflow on
// the merged multiset, through the wire's wrapped partial sums — a
// shard whose own sum wrapped does not fail a merge whose total fits,
// and a total that leaves int64 fails the merge instead of wrapping,
// as the answer's error.
func TestMergeIntSumOverflow(t *testing.T) {
	aggs := []xlm.AggSpec{{Out: "total", Func: "SUM"}}
	merge := func(shards ...[]int64) ([][]expr.Value, error) {
		resps := make([]*PartialResponse, len(shards))
		for s, vals := range shards {
			agg, err := engine.NewHashAggregator(nil, aggs, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			rows := make([][]expr.Value, len(vals))
			for i, v := range vals {
				rows[i] = []expr.Value{expr.Int(v)}
			}
			if err := agg.Add(rows); err != nil {
				t.Fatal(err)
			}
			resps[s] = wireTrip(t, EncodePartial(s, len(shards), 1, []string{"total"}, 0, aggs, agg.Partials()))
		}
		_, rows, _, err := Merge(resps)
		return rows, err
	}
	// The error is the answer's, with the single node's message.
	var answerErr AnswerError
	if _, err := merge([]int64{math.MaxInt64}, []int64{1}); !errors.As(err, &answerErr) || err.Error() != `aggregation SUM "total" overflows int64` {
		t.Fatalf("MaxInt64 + 1 across two shards: %v, want the overflow error as an AnswerError", err)
	}
	rows, err := merge([]int64{math.MaxInt64, 1}, []int64{-1})
	if err != nil || rows[0][0].Kind() != expr.KindInt || rows[0][0].AsInt() != math.MaxInt64 {
		t.Fatalf("MaxInt64 + 1 - 1 with the first shard wrapped: %v, %v; want MaxInt64", rows, err)
	}
}

func validResps(t testing.TB, count int, epoch uint64) []*PartialResponse {
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

	r = validResps(t, 3, 10)
	r[1].Dice = &engine.Dice{Pos: []int{0}, Thresholds: []float64{1}}
	wantSkew("one shard diced", r)

	if _, _, _, err := Merge(nil); err == nil {
		t.Fatal("empty merge must fail")
	}
	r = validResps(t, 3, 10)
	r[1] = nil
	if _, _, _, err := Merge(r); err == nil {
		t.Fatal("nil response must fail")
	}
	if _, _, _, err := Merge([]*PartialResponse{nil}); err == nil || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("a nil first answer: %v, want an error naming shard 0", err)
	}

	// And the happy path still merges.
	r = validResps(t, 3, 10)
	if _, _, _, err := Merge(r); err != nil {
		t.Fatalf("valid responses failed to merge: %v", err)
	}
}

// Malformed wire groups (arity lies) must be errors: a column that
// does not hold N entries fails the merge, a code past its dictionary
// the decode.
func TestDecodeGroupsValidatesArity(t *testing.T) {
	r := validResps(t, 1, 1)[0]
	r.Groups.Keys[0].Codes = append(r.Groups.Keys[0].Codes, 0)
	if _, _, _, err := Merge([]*PartialResponse{r}); err == nil {
		t.Fatal("extra key value must be a merge error")
	}
	r = validResps(t, 1, 1)[0]
	r.Groups.States[1].Counts = r.Groups.States[1].Counts[:2]
	if _, _, _, err := Merge([]*PartialResponse{r}); err == nil {
		t.Fatal("missing counts must be a merge error")
	}
	r = validResps(t, 1, 1)[0]
	r.Groups.States = r.Groups.States[:2]
	if _, _, _, err := Merge([]*PartialResponse{r}); err == nil {
		t.Fatal("missing measures must be a merge error")
	}
	r = validResps(t, 1, 1)[0]
	r.Groups.N++
	if _, _, _, err := Merge([]*PartialResponse{r}); err == nil {
		t.Fatal("a cell count the columns do not hold must be a merge error")
	}
	r = validResps(t, 1, 1)[0]
	r.Groups.Keys[0].Codes[0] = uint32(len(r.Groups.Keys[0].Dict))
	if _, err := r.DecodeGroups(); err == nil {
		t.Fatal("a code past its dictionary must be a decode error")
	}
}
