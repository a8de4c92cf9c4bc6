package olap

// Internal unit tests for the benefit-aware admission model: ranking,
// the top-K slot cap, and byte-budget eviction order — on fabricated
// entries, so the policy is pinned independently of the engine. The
// end-to-end behaviour (a covering aggregate that frequency-only
// admission would evict being served byte-identically) is proved in
// matagg_benefit_test.go.

import (
	"testing"

	"quarry/internal/engine"
	"quarry/internal/expr"
)

// entry fabricates a built candidate with the fields admission reads.
func entry(key string, rows int, bytes int64, benefit float64) *matEntry {
	return &matEntry{
		pat:     &aggPattern{key: key},
		rows:    make([][]expr.Value, rows),
		bytes:   bytes,
		benefit: benefit,
	}
}

func keysOf(entries []*matEntry) []string {
	out := make([]string, len(entries))
	for i, en := range entries {
		out[i] = en.pat.key
	}
	return out
}

func assertKeys(t *testing.T, got []*matEntry, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("admitted %v, want %v", keysOf(got), want)
	}
	for i, k := range want {
		if got[i].pat.key != k {
			t.Fatalf("admitted %v, want %v", keysOf(got), want)
		}
	}
}

// TestAdmitByBenefitNotFrequency: with no budget, ranking is pure
// benefit — a high-fan-in aggregate outranks a hotter one whose
// fan-in is near 1, which is exactly the case raw frequency ranking
// gets wrong (the benefit values here encode weight×fanIn: the "hot"
// entry had weight 10 but fan-in 1.2, the "cool" one weight 2 but
// fan-in 500).
func TestAdmitByBenefitNotFrequency(t *testing.T) {
	hot := entry("hot-low-benefit", 5000, 500_000, 10*1.2)
	cool := entry("cool-high-fanin", 12, 1_200, 2*500)
	keep := admitEntries([]*matEntry{hot, cool}, 1, 0)
	assertKeys(t, keep, "cool-high-fanin")
}

// TestAdmitTopKCap: the slot cap binds even when everything would fit
// a budget; the best K by benefit survive.
func TestAdmitTopKCap(t *testing.T) {
	cands := []*matEntry{
		entry("a", 10, 100, 1),
		entry("b", 10, 100, 3),
		entry("c", 10, 100, 2),
	}
	keep := admitEntries(cands, 2, 0)
	assertKeys(t, keep, "b", "c")
}

// TestAdmitBudgetEvictionOrder: under a budget the ranking switches
// to benefit per byte, and entries are evicted lowest-density first
// until the rest fit.
func TestAdmitBudgetEvictionOrder(t *testing.T) {
	// densities: a=0.10, b=0.05, c=0.02 — budget fits a+b only.
	a := entry("a", 10, 1000, 100)
	b := entry("b", 10, 2000, 100)
	c := entry("c", 10, 5000, 100)
	keep := admitEntries([]*matEntry{c, b, a}, 8, 3000)
	assertKeys(t, keep, "a", "b")
}

// TestAdmitBudgetSkipsOversized: a candidate too large for the
// remaining budget is skipped, not terminal — a smaller, lower-ranked
// aggregate that still fits is admitted (greedy knapsack).
func TestAdmitBudgetSkipsOversized(t *testing.T) {
	big := entry("big", 100, 900, 9000)   // density 10, hogs the budget
	huge := entry("huge", 100, 800, 4000) // density 5, does NOT fit after big
	small := entry("small", 10, 100, 100) // density 1, fits in the remainder
	keep := admitEntries([]*matEntry{big, huge, small}, 8, 1000)
	assertKeys(t, keep, "big", "small")
}

// TestAdmitDeterministicTieBreak: equal ranks resolve by pattern key,
// so repeated refreshes over an unchanged log install the same set.
func TestAdmitDeterministicTieBreak(t *testing.T) {
	x := entry("x", 10, 100, 5)
	y := entry("y", 10, 100, 5)
	keep := admitEntries([]*matEntry{y, x}, 1, 0)
	assertKeys(t, keep, "x")
}

// TestEstimateBytesCharging: an entry is charged for both halves of
// its representation — the partial states and the rows finalised from
// them — per value plus string content (group keys and MIN/MAX states
// alike) plus float-sum expansion words, so a wide string entry costs
// more than a numeric one: the property benefit-per-byte ranking relies
// on.
func TestEstimateBytesCharging(t *testing.T) {
	entryOf := func(key expr.Value, m engine.MeasurePartial, final expr.Value) ([]engine.AggPartial, [][]expr.Value) {
		return []engine.AggPartial{{Group: []expr.Value{key}, Measures: []engine.MeasurePartial{m}}},
			[][]expr.Value{{key, final}}
	}
	sum := engine.MeasurePartial{Count: 2, SumParts: []float64{2}}
	numParts, numRows := entryOf(expr.Int(1), sum, expr.Float(2))
	strParts, strRows := entryOf(expr.Str("a-rather-long-group-key"), sum, expr.Float(2))
	n, s := estimateBytes(numParts, numRows), estimateBytes(strParts, strRows)
	if n <= 0 || s <= n {
		t.Fatalf("estimateBytes: numeric=%d stringy=%d, want 0 < numeric < stringy", n, s)
	}
	if rowsOnly, partsOnly := estimateBytes(nil, numRows), estimateBytes(numParts, nil); rowsOnly <= 0 || partsOnly <= 0 || rowsOnly+partsOnly != n {
		t.Fatalf("estimateBytes: rows=%d + partials=%d, want both charged and summing to %d", rowsOnly, partsOnly, n)
	}
	wide := sum
	wide.SumParts = []float64{1e100, 1, 1e-100}
	wideParts, _ := entryOf(expr.Int(1), wide, expr.Float(2))
	if w := estimateBytes(wideParts, numRows); w <= n {
		t.Fatalf("estimateBytes: a 3-word expansion costs %d, no more than the 1-word %d", w, n)
	}
	minStr := engine.MeasurePartial{Count: 2, Min: expr.Str("a-rather-long-minimum")}
	minParts, _ := entryOf(expr.Int(1), minStr, expr.Float(2))
	if got, bare := estimateBytes(minParts, nil), estimateBytes(numParts, nil); got <= bare-8 {
		t.Fatalf("estimateBytes: string MIN state costs %d, numeric state %d: string content not charged", got, bare)
	}
	if got := estimateBytes(nil, nil); got != 0 {
		t.Fatalf("estimateBytes(nil, nil) = %d, want 0", got)
	}
}
