package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/storage"
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

// sameValue compares two values by kind and, for floats, by bits.
func sameValue(x, y expr.Value) bool {
	fx, _ := x.AsFloat()
	fy, _ := y.AsFloat()
	return x.Kind() == y.Kind() && x.String() == y.String() && (x.Kind() != expr.KindFloat || math.Float64bits(fx) == math.Float64bits(fy))
}

// reseal replaces a frame's checksum trailer with the one its bytes
// have, in a copy.
func reseal(frame []byte) []byte {
	body := frame[:len(frame)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

// headerOffsets are where an undiced frame's group-column count and
// cell count sit.
func headerOffsets(r *PartialResponse) (groupColsAt, nAt int) {
	at := len(frameMagic) + 1 + 4 + 4 + 8 + 4
	for _, c := range r.Columns {
		at += 4 + len(c)
	}
	groupColsAt = at
	at += 4 + 4
	for _, a := range r.Aggs {
		at += 4 + len(a.Func) + 4 + len(a.Out)
	}
	return groupColsAt, at + 4 + 4 + 4 // no dice position, threshold or carat
}

// hostileFrame declares 2³¹ cells of one int key in about a hundred
// bytes: the key is a single run-length chunk, and the SUM's columns
// are missing.
func hostileFrame() []byte {
	b := append(append([]byte(nil), frameMagic[:]...), frameVersion)
	b = binary.LittleEndian.AppendUint32(b, 0) // shard index
	b = binary.LittleEndian.AppendUint32(b, 1) // shard count
	b = binary.LittleEndian.AppendUint64(b, 1) // epoch
	b = binary.LittleEndian.AppendUint32(b, 2) // columns
	b = appendStr(appendStr(b, "g"), "s")
	b = binary.LittleEndian.AppendUint32(b, 1) // group columns
	b = binary.LittleEndian.AppendUint32(b, 1) // aggregates
	b = appendStr(appendStr(b, "SUM"), "s")
	b = append(b, make([]byte, 12)...) // no dice
	b = binary.LittleEndian.AppendUint32(b, 1<<31)
	run := binary.LittleEndian.AppendUint32([]byte{2}, 1<<31) // an RLE chunk: one run of 2³¹ rows
	run = binary.LittleEndian.AppendUint64(append(run, 1), 7)
	b = binary.LittleEndian.AppendUint32(append(b, byte(expr.KindInt)), uint32(len(run)))
	b = append(b, run...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFrameRefusals: every way a frame can be wrong is an error that
// says which, and leaves the answer it was decoded into as it was.
func TestFrameRefusals(t *testing.T) {
	valid := validResps(t, 1, 1)[0]
	frame, err := valid.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	groupColsAt, nAt := headerOffsets(valid)
	patched := func(at int, v uint32) []byte {
		b := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(b[at:], v)
		return reseal(b)
	}
	// Two hundred constant key columns: each a run-length chunk of a few
	// bytes that decodes to N entries.
	wide := &PartialResponse{ShardCount: 1, Aggs: []AggWire{{"COUNT", "n"}}, GroupCols: 200}
	wide.Groups.N = 1000
	for j := 0; j < wide.GroupCols; j++ {
		wide.Columns = append(wide.Columns, fmt.Sprintf("k%d", j))
		wide.Groups.Keys = append(wide.Groups.Keys, &storage.Vector{Kind: expr.KindInt, Ints: make([]int64, wide.Groups.N)})
	}
	wide.Columns = append(wide.Columns, "n")
	wide.Groups.States = []engine.StateCols{{Counts: make([]int64, wide.Groups.N)}}
	wideFrame, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	version := append([]byte(nil), frame...)
	version[len(frameMagic)] = frameVersion + 1
	flipped := append([]byte(nil), frame...)
	flipped[len(frame)/2] ^= 0x10
	for name, c := range map[string]struct {
		frame []byte
		want  string
	}{
		"a JSON body":            {[]byte(`{"shard_index":0,"shard_count":1,"epoch":1}`), "not a partial frame"},
		"an empty body":          {nil, "not a partial frame"},
		"another version":        {reseal(version), fmt.Sprintf("version %d, this build reads version %d", frameVersion+1, frameVersion)},
		"a flipped bit":          {flipped, "checksum"},
		"a truncated frame":      {reseal(frame[:len(frame)-20]), "truncated"},
		"trailing bytes":         {reseal(append(append([]byte(nil), frame[:len(frame)-4]...), 0, 0, 0, 0, 0)), "after the last column"},
		"negative group columns": {patched(groupColsAt, math.MaxUint32), "-1 group columns"},
		"cells past the frame":   {patched(nAt, uint32(len(frame))), "cells"},
		"a cell too many":        {patched(nAt, uint32(valid.Groups.N+1)), "shard: partial frame:"},
		"a hostile count":        {hostileFrame(), "declare 2147483648 cells"},
		"vectors past the frame": {wideFrame, "more entries than the frame"},
	} {
		r := validResps(t, 1, 1)[0]
		err := r.UnmarshalBinary(c.frame)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: %v, want an error saying %q", name, err, c.want)
		}
		if r.Groups.N != valid.Groups.N || r.Epoch != valid.Epoch {
			t.Fatalf("%s: the refused frame changed the answer", name)
		}
	}
	// Cells that do not fit their shape have no frame.
	r := validResps(t, 1, 1)[0]
	r.Groups.States[4].Mins = r.Groups.States[4].Mins[:1]
	if _, err := r.MarshalBinary(); err == nil {
		t.Fatal("encoded a MIN column shorter than N")
	}
	// Nor do picked cells: the frame holds every cell of its columns.
	r = validResps(t, 1, 1)[0]
	r.Groups = r.Groups.Pick([]int32{0})
	if _, err := r.MarshalBinary(); err == nil {
		t.Fatal("encoded picked cells")
	}
}

// dicedResp is shard s of count's answer, over every count-th of the
// test rows grouped by their first column, to a query of one COUNT(*)
// diced by d: the frame carries the hidden aggregates, hidden, after it.
func dicedResp(t testing.TB, s, count int, d *engine.Dice, hidden ...string) *PartialResponse {
	t.Helper()
	aggs, idx := []xlm.AggSpec{{Out: "n", Func: "COUNT"}}, []int{-1}
	for _, fn := range hidden {
		aggs, idx = append(aggs, xlm.AggSpec{Func: fn}), append(idx, 2)
	}
	agg, err := engine.NewHashAggregator([]int{0}, aggs, idx)
	if err != nil {
		t.Fatal(err)
	}
	var part [][]expr.Value
	for i, row := range testRows(90) {
		if i%count == s {
			part = append(part, row)
		}
	}
	if err := agg.Add(part); err != nil {
		t.Fatal(err)
	}
	r := EncodePartial(s, count, 1, []string{"g", "n"}, 1, aggs, agg.Partials())
	r.Dice = d
	return r
}

// TestFrameDice: a diced answer's frame carries the dice, and the merge
// of two shards' frames cuts the diamond a one-shard fleet cuts; a dice
// spec no query has is refused by the decoder, naming it.
func TestFrameDice(t *testing.T) {
	// 90 rows in 4 groups (NULL the fourth): 23, 23, 22 and 22 rows,
	// summing 110, 111, 110 and 110 units.
	for _, c := range []struct {
		dice   *engine.Dice
		hidden []string
	}{
		{&engine.Dice{Pos: []int{0}, Thresholds: []float64{23}}, []string{"COUNT"}},
		{&engine.Dice{Pos: []int{0}, Thresholds: []float64{111}, Carat: "units"}, []string{"AVG", "MIN"}},
	} {
		_, want, _, err := Merge([]*PartialResponse{wireTrip(t, dicedResp(t, 0, 1, c.dice, c.hidden...))})
		if err != nil {
			t.Fatal(err)
		}
		resps := []*PartialResponse{wireTrip(t, dicedResp(t, 0, 2, c.dice, c.hidden...)), wireTrip(t, dicedResp(t, 1, 2, c.dice, c.hidden...))}
		_, got, _, err := Merge(resps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || len(got) == 4 {
			t.Fatalf("carat %q: a diamond of %d of the 4 groups cuts nothing", c.dice.Carat, len(got))
		}
		if err := sameRows(got, want); err != nil {
			t.Fatalf("carat %q: merged diamond differs from the single fold's: %v", c.dice.Carat, err)
		}
	}
	for name, c := range map[string]struct {
		dice   *engine.Dice
		hidden []string
		want   string
	}{
		"a position past the group columns": {&engine.Dice{Pos: []int{1}, Thresholds: []float64{1}}, []string{"COUNT"}, "group positions [1] of 1"},
		"a negative position":               {&engine.Dice{Pos: []int{-1}, Thresholds: []float64{1}}, []string{"COUNT"}, "group positions [-1] of 1"},
		"a repeated position":               {&engine.Dice{Pos: []int{0, 0}, Thresholds: []float64{1, 1}}, []string{"COUNT"}, "group positions [0 0] of 1"},
		"a threshold too many":              {&engine.Dice{Pos: []int{0}, Thresholds: []float64{1, 2}}, []string{"COUNT"}, "1 positions and 2 thresholds"},
		"thresholds and no position":        {&engine.Dice{Thresholds: []float64{1}}, []string{"COUNT"}, "0 positions and 1 thresholds"},
		"a COUNT carat ending in MIN":       {&engine.Dice{Pos: []int{0}, Thresholds: []float64{1}}, []string{"MIN"}, "do not end in [COUNT]"},
		"a SUM carat ending in AVG alone":   {&engine.Dice{Pos: []int{0}, Thresholds: []float64{1}, Carat: "units"}, []string{"MIN", "AVG"}, "do not end in [AVG MIN]"},
		"a SUM carat ending in COUNT":       {&engine.Dice{Pos: []int{0}, Thresholds: []float64{1}, Carat: "units"}, []string{"COUNT"}, "do not end in [AVG MIN]"},
	} {
		frame, err := dicedResp(t, 0, 1, c.dice, c.hidden...).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(PartialResponse).UnmarshalBinary(frame); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: %v, want an error saying %q", name, err, c.want)
		}
	}
}

// TestJSONEnvelopeIsTheFrame: MarshalJSON is the frame as one base64
// string, and UnmarshalJSON reads it back to the same frame.
func TestJSONEnvelopeIsTheFrame(t *testing.T) {
	r := validResps(t, 2, 5)[1]
	frame, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var s []byte
	if err := json.Unmarshal(body, &s); err != nil || !bytes.Equal(s, frame) {
		t.Fatalf("the JSON body is not the frame in base64: %s", body)
	}
	back := new(PartialResponse)
	if err := json.Unmarshal(body, back); err != nil {
		t.Fatal(err)
	}
	if again, err := back.MarshalBinary(); err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("the envelope did not round-trip: %v", err)
	}
}

// FuzzPartialFrame: a frame from the fuzzer's bytes, decoded and merged
// as a one-shard fleet, never panics; a frame that is accepted
// re-encodes to a frame that decodes to cells finalising to the same
// rows, and that second frame is a fixpoint of decode → encode. The
// checksum would refuse nearly every mutation before the decoder reads
// it, so each input is decoded as it is and then once more with its
// trailer corrected: it is the layout behind the checksum that is
// fuzzed. Seeds: the shards' answers to the server's end-to-end query
// mix and to two diced queries (testdata/fuzz), validResps, a global
// aggregate's and two diced answers (dicedResp).
func FuzzPartialFrame(f *testing.F) {
	// A frame declaring 2³¹ cells in a hundred bytes is refused before
	// it allocates.
	hostile := hostileFrame()
	if spent := allocatedBy(func() { _ = new(PartialResponse).UnmarshalBinary(hostile) }); spent > 64<<10 {
		f.Fatalf("refusing a %d-byte frame of 2³¹ cells allocated %d bytes", len(hostile), spent)
	}
	f.Add(hostile)
	global, err := engine.NewHashAggregator(nil, []xlm.AggSpec{{Out: "n", Func: "COUNT"}, {Out: "s", Func: "SUM"}}, []int{-1, 0})
	if err != nil {
		f.Fatal(err)
	}
	seeds := append(validResps(f, 1, 1), validResps(f, 3, 10)...)
	seeds = append(seeds, EncodePartial(0, 1, 1, []string{"n", "s"}, 0, []xlm.AggSpec{{Out: "n", Func: "COUNT"}, {Out: "s", Func: "SUM"}}, global.Partials()),
		dicedResp(f, 0, 1, &engine.Dice{Pos: []int{0}, Thresholds: []float64{23}}, "COUNT"),
		dicedResp(f, 0, 1, &engine.Dice{Pos: []int{0}, Thresholds: []float64{111}, Carat: "units"}, "AVG", "MIN"))
	for _, r := range seeds {
		frame, err := r.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		mergeFrame(t, frame)
		if len(frame) >= 4 {
			mergeFrame(t, reseal(frame))
		}
	})
}

// mergeFrame is FuzzPartialFrame's check of one input.
func mergeFrame(t *testing.T, frame []byte) {
	r := new(PartialResponse)
	if r.UnmarshalBinary(frame) != nil {
		return
	}
	_, rows, _, err := Merge([]*PartialResponse{r})
	if err != nil {
		return
	}
	again, err := r.MarshalBinary()
	if err != nil {
		t.Fatalf("merged a frame whose cells do not re-encode: %v", err)
	}
	back := new(PartialResponse)
	if err := back.UnmarshalBinary(again); err != nil {
		t.Fatalf("re-encoded frame refused: %v", err)
	}
	_, rows2, _, err := Merge([]*PartialResponse{back})
	if err != nil {
		t.Fatalf("re-encoded frame does not merge: %v", err)
	}
	if err := sameRows(rows, rows2); err != nil {
		t.Fatalf("re-encoded frame finalises differently: %v", err)
	}
	third, err := back.MarshalBinary()
	if err != nil || !bytes.Equal(third, again) {
		t.Fatalf("the re-encoded frame is not a fixpoint: %v", err)
	}
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
