package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/xlm"
)

// TestMergeRejectsMalformedShape: a result shape no query has is an
// error naming the shard, which the gather answers with a 502 — not a
// panic, and not rows narrower than the header.
func TestMergeRejectsMalformedShape(t *testing.T) {
	for name, lie := range map[string]func(r *PartialResponse){
		"negative group columns":    func(r *PartialResponse) { r.GroupCols = -1 },
		"more columns than answers": func(r *PartialResponse) { r.Columns = append(r.Columns, "extra") },
		"no aggregate":              func(r *PartialResponse) { r.Columns, r.Aggs, r.Groups.States = r.Columns[:1], nil, nil },
	} {
		resps := validResps(t, 2, 3)
		for _, r := range resps {
			lie(r)
		}
		_, rows, _, err := Merge(resps)
		if err == nil || rows != nil {
			t.Fatalf("%s: merged %d rows, err %v; want an error", name, len(rows), err)
		}
		if !strings.Contains(err.Error(), "shard 0") {
			t.Fatalf("%s: error %q does not name the shard", name, err)
		}
	}
}

// decodeAndMerge is the gather's path for one shard's body: JSON into
// a PartialResponse, then Merge.
func decodeAndMerge(body []byte) ([][]expr.Value, error) {
	r := new(PartialResponse)
	if err := json.Unmarshal(body, r); err != nil {
		return nil, err
	}
	_, rows, _, err := Merge([]*PartialResponse{r})
	return rows, err
}

// TestMixedWireFormsFailClosed: a body of the per-group form (groups as
// an array of key/measures objects) is refused by this Merge, and this
// form's body is refused by a decoder of the per-group one — a fleet of
// mixed builds answers 502, never an empty or a wrong 200.
func TestMixedWireFormsFailClosed(t *testing.T) {
	head := `{"shard_index":0,"shard_count":1,"epoch":1,"columns":["g","n"],"group_cols":1,"aggs":[{"func":"COUNT","out":"n"}],`
	for _, groups := range []string{
		`"groups":[{"key":[{"k":"string","s":"a"}],"measures":[{"count":2,"sum_is_int":true}]}]}`,
		`"groups":[]}`,
	} {
		if rows, err := decodeAndMerge([]byte(head + groups)); err == nil {
			t.Fatalf("per-group body %s merged to %v", groups, rows)
		}
	}
	body, err := json.Marshal(validResps(t, 1, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	var perGroup struct {
		Groups []struct {
			Key      []ValueWire       `json:"key"`
			Measures []json.RawMessage `json:"measures"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(body, &perGroup); err == nil {
		t.Fatal("a decoder of the per-group form read a columnar body")
	}
}

// sameRows compares finalised rows value by value, floats by their
// bits (NaN included).
func sameRows(a, b [][]expr.Value) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			return fmt.Errorf("row %d: %d columns vs %d", r, len(a[r]), len(b[r]))
		}
		for c := range a[r] {
			x, y := a[r][c], b[r][c]
			fx, _ := x.AsFloat()
			fy, _ := y.AsFloat()
			if x.Kind() != y.Kind() || x.String() != y.String() || x.Kind() == expr.KindFloat && math.Float64bits(fx) != math.Float64bits(fy) {
				return fmt.Errorf("row %d column %d: %v vs %v", r, c, x, y)
			}
		}
	}
	return nil
}

// readable is the fuzz oracle's own reading of a body: true when every
// column a declared aggregate reads, and every key column, holds N
// entries and every code of a non-NULL row is inside its dictionary.
func readable(r *PartialResponse) bool {
	w := &r.Groups
	vec := func(v *VectorWire) bool {
		if v == nil { // an empty column is left out
			return w.N == 0
		}
		n := len(v.Codes)
		switch v.Kind {
		case "int":
			n = len(v.Ints)
		case "float":
			n = len(v.Floats)
		}
		if n != w.N || v.Nulls != nil && len(v.Nulls) != (n+63)/64 {
			return false
		}
		for i, c := range v.Codes {
			null := v.Nulls != nil && v.Nulls[i>>6]&(1<<(uint(i)&63)) != 0
			if v.Kind != "int" && v.Kind != "float" && !null && int(c) >= len(v.Dict) {
				return false
			}
		}
		return true
	}
	if w.N < 0 || len(w.Keys) != r.GroupCols || len(w.States) != len(r.Aggs) {
		return false
	}
	for j := range w.Keys {
		if !vec(&w.Keys[j]) {
			return false
		}
	}
	for i, a := range r.Aggs {
		s := &w.States[i]
		ok := len(s.Counts) == w.N
		switch a.Func {
		case "SUM", "AVG":
			cells := 0
			for _, b := range s.Sums {
				if b == 0 {
					cells++
				}
			}
			ended := len(s.Sums) == 0 || s.Sums[len(s.Sums)-1] == 0
			ok = ok && vec(s.IntSums) && cells == w.N && ended
		case "MIN":
			ok = ok && vec(s.Mins)
		case "MAX":
			ok = ok && vec(s.Maxs)
		}
		if !ok {
			return false
		}
	}
	return true
}

// FuzzDecodePartial: a shard body from the fuzzer's bytes, merged as a
// one-shard fleet, never panics; a body whose columns disagree with N
// or whose codes run past their dictionary is refused; and a body that
// is accepted finalises to the same rows after one more encode → JSON
// → decode trip.
func FuzzDecodePartial(f *testing.F) {
	global, err := engine.NewHashAggregator(nil, []xlm.AggSpec{{Out: "n", Func: "COUNT"}, {Out: "s", Func: "SUM"}}, []int{-1, 0})
	if err != nil {
		f.Fatal(err)
	}
	seeds := append(validResps(f, 1, 1), EncodePartial(0, 1, 1, []string{"n", "s"}, 0, []xlm.AggSpec{{Out: "n", Func: "COUNT"}, {Out: "s", Func: "SUM"}}, global.Partials()))
	for _, r := range seeds {
		body, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := new(PartialResponse)
		if json.Unmarshal(body, r) != nil {
			return
		}
		_, rows, _, err := Merge([]*PartialResponse{r})
		if err != nil {
			return
		}
		if !readable(r) {
			t.Fatalf("merged a body whose columns do not hold %d cells: %s", r.Groups.N, body)
		}
		cells, err := r.DecodeGroups()
		if err != nil {
			t.Fatalf("merged, then failed to decode: %v", err)
		}
		aggs := make([]xlm.AggSpec, len(r.Aggs))
		for i, a := range r.Aggs {
			aggs[i] = xlm.AggSpec{Func: a.Func, Out: a.Out}
		}
		again, err := json.Marshal(EncodePartial(r.ShardIndex, r.ShardCount, r.Epoch, r.Columns, r.GroupCols, aggs, cells))
		if err != nil {
			t.Fatal(err)
		}
		rows2, err := decodeAndMerge(again)
		if err != nil {
			t.Fatalf("re-encoded body refused: %v", err)
		}
		if err := sameRows(rows, rows2); err != nil {
			t.Fatalf("re-encoded body finalises differently: %v", err)
		}
	})
}

// BenchmarkGatherMerge is the gather's work on two shards' partial
// answers: export, JSON encode, JSON decode and Merge. etl is a wide
// cube (15 000 groups of two int keys), dash a dashboard's (25 string
// groups); both SUM an int and a float, COUNT(*) and take a string MIN.
// wire_B/op is the two bodies' size.
func BenchmarkGatherMerge(b *testing.B) {
	aggs := []xlm.AggSpec{{Out: "si", Func: "SUM"}, {Out: "sf", Func: "SUM"}, {Out: "n", Func: "COUNT"}, {Out: "lo", Func: "MIN"}}
	for _, bc := range []struct {
		name   string
		groups int
		key    func(g int) []expr.Value
	}{
		{"etl", 15000, func(g int) []expr.Value { return []expr.Value{expr.Int(int64(g / 150)), expr.Int(int64(g % 150))} }},
		{"dash", 25, func(g int) []expr.Value { return []expr.Value{expr.Str(fmt.Sprintf("brand#%02d", g))} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k := len(bc.key(0))
			columns := []string{"si", "sf", "n", "lo"}
			for j := range k {
				columns = append([]string{fmt.Sprintf("g%d", k-1-j)}, columns...)
			}
			groupIdx := make([]int, k)
			for j := range groupIdx {
				groupIdx[j] = j
			}
			shards := make([]*engine.HashAggregator, 2)
			for s := range shards {
				agg, err := engine.NewHashAggregator(groupIdx, aggs, []int{k, k + 1, -1, k + 2})
				if err != nil {
					b.Fatal(err)
				}
				rows := make([][]expr.Value, 0, 2*max(bc.groups, 1000))
				for i := range cap(rows) {
					g := (i*7 + s) % bc.groups
					row := append(bc.key(g), expr.Int(int64(i%1000)), expr.Float(float64(i)*0.1), expr.Str(fmt.Sprintf("t%03d", (i*37+s)%200)))
					rows = append(rows, row)
				}
				if err := agg.Add(rows); err != nil {
					b.Fatal(err)
				}
				shards[s] = agg
			}
			resps := make([]*PartialResponse, len(shards))
			wire := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wire = 0
				for s, agg := range shards {
					body, err := json.Marshal(EncodePartial(s, len(shards), 1, columns, k, aggs, agg.Partials()))
					if err != nil {
						b.Fatal(err)
					}
					wire += len(body)
					resps[s] = new(PartialResponse)
					if err := json.Unmarshal(body, resps[s]); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, _, err := Merge(resps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire), "wire_B/op")
		})
	}
}
