package engine_test

import (
	"encoding/hex"
	"math"
	"testing"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/shard"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// intSumFrame is the shard frame of TestIntSumPartialFrame's partial as
// the aggregator wrote it when every SUM kept a float expansion per
// group: exported, an int SUM's cells are the same bytes whether or not
// its fold kept one.
const intSumFrame = "51505254020000000001000000070000000000000003000000010000006b05000000746f74616c010000006e01000000020000000300000053554d05000000746f74616c05000000434f554e54010000006e00000000000000000000000004000000010c00000003010000000000000002072402000000000000000200000000000000010000000000000001000000000000000122000000000ffeffffffffffffffffffffffffffff7f000000000000008001000000000020000800000000000000000000c00000000000000000000000000000e0430000000000000000000000000000e0c300000000000000000000000000004043000000000000000002000000000000000200000000000000010000000000000001000000000000003cdc8a24"

// TestIntSumPartialFrame pins the frame of an int-only SUM's partial —
// ints past 2⁵³ and at the ends of int64, a NULL key — byte for byte.
func TestIntSumPartialFrame(t *testing.T) {
	aggs := []xlm.AggSpec{{Out: "total", Func: "SUM", Col: "v"}, {Out: "n", Func: "COUNT"}}
	a, err := engine.NewHashAggregator([]int{0}, aggs, []int{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	keys := []expr.Value{expr.Int(1), expr.Int(2), expr.Int(1), expr.Int(3), expr.Int(2), expr.Null()}
	vals := []expr.Value{expr.Int(5), expr.Int(1<<62 + 1023), expr.Int(-7), expr.Int(math.MinInt64), expr.Int(1<<62 - 1024),
		expr.Int(9007199254740993)}
	if err := a.AddVectors(len(keys), []engine.Column{{Vec: storage.VectorOf(keys)}}, []engine.Column{{Vec: storage.VectorOf(vals)}, {}}); err != nil {
		t.Fatal(err)
	}
	b, err := shard.EncodePartial(0, 1, 7, []string{"k", "total", "n"}, 1, aggs, a.Partials()).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != intSumFrame {
		t.Fatalf("frame\n%s\nwant\n%s", got, intSumFrame)
	}
}
