package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"quarry/internal/expr"
)

// BenchmarkEncodePage renders one single-column page of 8000 rows per
// column type and per encoding the stats pass can pick for it (the
// shape is built to make it pick that one, and the benchmark checks it
// did), in rows per second: what the write side pays per value, by
// kind of column.
func BenchmarkEncodePage(b *testing.B) {
	const n = 8000
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		typ  string
		enc  byte
		name string
		gen  func(i int) expr.Value
	}{
		{"int", encRaw, "raw", func(i int) expr.Value { return expr.Int(rng.Int63() - rng.Int63()) }},
		{"int", encBitPack, "bitpack", func(i int) expr.Value { return expr.Int(int64(i)*3 + rng.Int63n(3)) }},
		{"int", encDict, "dict", func(i int) expr.Value { return expr.Int(rng.Int63n(40) << 40) }},
		{"int", encRLE, "rle", func(i int) expr.Value { return expr.Int(int64(i / 500)) }},
		{"float", encRaw, "raw", func(i int) expr.Value { return expr.Float(rng.NormFloat64()) }},
		{"float", encRLE, "rle", func(i int) expr.Value { return expr.Float(float64(i/500) / 4) }},
		{"string", encRaw, "raw", func(i int) expr.Value { return expr.Str(fmt.Sprintf("name-%07d-%d", i, rng.Intn(10))) }},
		{"string", encDict, "dict", func(i int) expr.Value { return expr.Str(fmt.Sprintf("brand-%02d", rng.Intn(40))) }},
		{"string", encRLE, "rle", func(i int) expr.Value { return expr.Str(fmt.Sprintf("region-%d", i/500)) }},
		{"bool", encRaw, "raw", func(i int) expr.Value { return expr.Bool(rng.Intn(2) == 0) }},
		{"bool", encRLE, "rle", func(i int) expr.Value { return expr.Bool(i < n/2) }},
	}
	for _, tc := range cases {
		cols := []Column{{Name: "c", Type: tc.typ}}
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{tc.gen(i)}
			if i%97 == 96 {
				rows[i] = Row{expr.Null()}
			}
		}
		b.Run(tc.typ+"/"+tc.name, func(b *testing.B) {
			if got := chunkTag(encodePage(cols, rows).buf); got != tc.enc {
				b.Fatalf("the stats pass chose encoding %d, the case is built for %d", got, tc.enc)
			}
			var e chunkEncoder // reused across pages, as a commit worker's is
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.encodePage(cols, rows)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
