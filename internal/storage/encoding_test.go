package storage

// Quick-check suites for the format-2 page encodings and zone-map
// pruning: randomized column data of every type and adversarial shape
// must decode bit-identical through whichever encoding the stats pass
// picks (and through each encoding when forced), and a pruned cursor
// must never drop a row the full scan's filter would keep.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"quarry/internal/expr"
)

// encodePage renders one page with a throwaway encoder.
func encodePage(cols []Column, rows []Row) encodedPage {
	return new(chunkEncoder).encodePage(cols, rows)
}

// rowsIdentical compares row sets bit-exactly (reflect.DeepEqual
// would call NaN ≠ NaN and -0 == +0; the codec's contract is stricter).
func rowsIdentical(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !valIdentical(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// colGen produces the i-th value of a synthetic column, or NULL.
type colGen func(rng *rand.Rand, i int) expr.Value

// genPatterns enumerates the adversarial value shapes per type: long
// runs (RLE bait), low cardinality (dict bait), narrow int ranges
// (bit-pack bait), high cardinality (raw fallback), plus edge values
// the packers must not mangle.
func genPatterns(typ string) map[string]colGen {
	switch typ {
	case "int":
		return map[string]colGen{
			"constant":  func(rng *rand.Rand, i int) expr.Value { return expr.Int(42) },
			"runs":      func(rng *rand.Rand, i int) expr.Value { return expr.Int(int64(i / 97)) },
			"narrow":    func(rng *rand.Rand, i int) expr.Value { return expr.Int(rng.Int63n(100) - 50) },
			"wide":      func(rng *rand.Rand, i int) expr.Value { return expr.Int(rng.Int63() - rng.Int63()) },
			"ascending": func(rng *rand.Rand, i int) expr.Value { return expr.Int(int64(i)) },
			"extremes": func(rng *rand.Rand, i int) expr.Value {
				vals := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1}
				return expr.Int(vals[rng.Intn(len(vals))])
			},
		}
	case "float":
		return map[string]colGen{
			"constant": func(rng *rand.Rand, i int) expr.Value { return expr.Float(3.5) },
			"runs":     func(rng *rand.Rand, i int) expr.Value { return expr.Float(float64(i/53) * 0.25) },
			"random":   func(rng *rand.Rand, i int) expr.Value { return expr.Float(rng.NormFloat64() * 1e6) },
			"special": func(rng *rand.Rand, i int) expr.Value {
				vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1),
					math.Copysign(0, -1), 0, math.MaxFloat64, math.SmallestNonzeroFloat64}
				return expr.Float(vals[rng.Intn(len(vals))])
			},
		}
	case "string":
		return map[string]colGen{
			"constant": func(rng *rand.Rand, i int) expr.Value { return expr.Str("same") },
			"lowcard": func(rng *rand.Rand, i int) expr.Value {
				return expr.Str(fmt.Sprintf("tag-%d", rng.Intn(7)))
			},
			"highcard": func(rng *rand.Rand, i int) expr.Value {
				return expr.Str(fmt.Sprintf("uniq-%d-%d", i, rng.Int63()))
			},
			"runs": func(rng *rand.Rand, i int) expr.Value { return expr.Str(strings.Repeat("r", i/61%5)) },
			"empty+long": func(rng *rand.Rand, i int) expr.Value {
				if rng.Intn(2) == 0 {
					return expr.Str("")
				}
				return expr.Str(strings.Repeat("長", 200+rng.Intn(100)))
			},
		}
	case "bool":
		return map[string]colGen{
			"constant":    func(rng *rand.Rand, i int) expr.Value { return expr.Bool(true) },
			"alternating": func(rng *rand.Rand, i int) expr.Value { return expr.Bool(i%2 == 0) },
			"random":      func(rng *rand.Rand, i int) expr.Value { return expr.Bool(rng.Intn(2) == 0) },
		}
	}
	return nil
}

// nullPatterns enumerates null placements: none, all, alternating,
// sparse random, and a leading all-null prefix.
var nullPatterns = map[string]func(rng *rand.Rand, i, n int) bool{
	"none":        func(rng *rand.Rand, i, n int) bool { return false },
	"all":         func(rng *rand.Rand, i, n int) bool { return true },
	"alternating": func(rng *rand.Rand, i, n int) bool { return i%2 == 1 },
	"sparse":      func(rng *rand.Rand, i, n int) bool { return rng.Intn(17) == 0 },
	"prefix":      func(rng *rand.Rand, i, n int) bool { return i < n/3 },
}

func TestEncodingQuickCheck(t *testing.T) {
	for _, typ := range []string{"int", "float", "string", "bool"} {
		for pat, gen := range genPatterns(typ) {
			for nulls, isNull := range nullPatterns {
				t.Run(typ+"/"+pat+"/nulls="+nulls, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(typ)*1000 + len(pat)*31 + len(nulls))))
					for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
						cols := []Column{{Name: "c", Type: typ}}
						rows := make([]Row, n)
						for i := range rows {
							if isNull(rng, i, n) {
								rows[i] = Row{expr.Null()}
							} else {
								rows[i] = Row{gen(rng, i)}
							}
						}
						ep := encodePage(cols, rows)
						if len(ep.buf)%pageBlock != 0 {
							t.Fatalf("n=%d: page size %d not a pageBlock multiple", n, len(ep.buf))
						}
						if err := samePage(ep, encodePageReference(cols, rows)); err != nil {
							t.Fatalf("n=%d: %v", n, err)
						}
						got, err := decodePage(manifestFormatV2, cols, ep.buf, len(rows))
						if err != nil {
							t.Fatalf("n=%d: decode: %v", n, err)
						}
						if !rowsIdentical(got, rows) {
							t.Fatalf("n=%d: decoded rows differ bit-exactly from input", n)
						}
					}
				})
			}
		}
	}
}

// chunkTag digs the encoding tag of the single chunk out of a
// one-column v2 page: u32 rowCount, u32 chunkLen, then the tag byte.
func chunkTag(buf []byte) byte { return buf[8] }

// TestEncodingSelection pins the stats pass to the intended encoding
// per canonical data shape and round-trips each, so every encoder and
// decoder pair is exercised regardless of what selection would pick
// for the quick-check corpora.
func TestEncodingSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		typ  string
		want byte
		gen  func(i int) expr.Value
	}{
		{"rle-runs", "int", encRLE, func(i int) expr.Value { return expr.Int(int64(i / 200)) }},
		{"dict-lowcard-strings", "string", encDict,
			func(i int) expr.Value { return expr.Str(fmt.Sprintf("region-%02d", i%9)) }},
		{"bitpack-narrow-ints", "int", encBitPack,
			func(i int) expr.Value { return expr.Int(rng.Int63n(5000) - 2500) }},
		{"raw-highcard-strings", "string", encRaw,
			func(i int) expr.Value { return expr.Str(fmt.Sprintf("unique-value-%d-%d", i, rng.Int63())) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cols := []Column{{Name: "c", Type: tc.typ}}
			rows := make([]Row, 1000)
			for i := range rows {
				rows[i] = Row{tc.gen(i)}
			}
			ep := encodePage(cols, rows)
			if got := chunkTag(ep.buf); got != tc.want {
				t.Fatalf("chose encoding %d, want %d", got, tc.want)
			}
			got, err := decodePage(manifestFormatV2, cols, ep.buf, len(rows))
			if err != nil {
				t.Fatal(err)
			}
			if !rowsIdentical(got, rows) {
				t.Fatal("round-trip mismatch")
			}
		})
	}
}

// TestForceRawDisablesCompression pins the benchmark knob: with
// TestingForceRaw set, every chunk encodes raw even on dict-friendly
// data.
func TestForceRawDisablesCompression(t *testing.T) {
	TestingForceRaw = true
	defer func() { TestingForceRaw = false }()
	cols := []Column{{Name: "c", Type: "string"}}
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = Row{expr.Str("constant")}
	}
	ep := encodePage(cols, rows)
	if got := chunkTag(ep.buf); got != encRaw {
		t.Fatalf("forced-raw page used encoding %d", got)
	}
	got, err := decodePage(manifestFormatV2, cols, ep.buf, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if !rowsIdentical(got, rows) {
		t.Fatal("round-trip mismatch")
	}
}

// zoneCols is a fact-like layout whose leading column arrives
// clustered (ascending), giving zone maps real pruning power.
var zoneCols = []Column{
	{Name: "day", Type: "int"},
	{Name: "name", Type: "string"},
	{Name: "v", Type: "float"},
}

func zoneRow(rng *rand.Rand, i int) Row {
	if rng.Intn(41) == 0 {
		return Row{expr.Null(), expr.Null(), expr.Null()}
	}
	return Row{
		expr.Int(int64(i / 500)), // clustered: each page spans few days
		expr.Str(fmt.Sprintf("n-%03d·%s", rng.Intn(30), strings.Repeat("x", 20))),
		expr.Float(rng.Float64() * 100),
	}
}

// satisfies mirrors the evaluator's comparison semantics for the
// predicate shapes the property test pushes down (NULL never
// qualifies; "="/"!=" via Equal, orderings via Compare on matching
// kinds).
func satisfies(v expr.Value, op string, lit expr.Value) bool {
	if v.IsNull() || lit.IsNull() {
		return false
	}
	switch op {
	case "=":
		return v.Equal(lit)
	case "!=":
		return !v.Equal(lit)
	}
	c, err := v.Compare(lit)
	if err != nil {
		return false
	}
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// collect drains a cursor.
func collect(c *Cursor) []Row {
	var out []Row
	for {
		b := c.Next(1024)
		if b == nil {
			return out
		}
		out = append(out, b...)
	}
}

// TestZonePruneNeverDropsQualifyingRow is the pruning safety property:
// for a grab bag of pushed-down predicates over clustered, nullable,
// multi-page data, the pruned cursor must return (a) an in-order
// subset of the full scan and (b) every row the predicate keeps. It
// also asserts the clustered predicate actually skips pages — a
// vacuous prune would pass (a)+(b) trivially.
func TestZonePruneNeverDropsQualifyingRow(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dir := t.TempDir()
	db := openDisk(t, dir)
	tbl, err := db.CreateTable("t", zoneCols)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = zoneRow(rng, i)
	}
	if err := tbl.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("t")

	preds := []PrunePredicate{
		{Col: "day", Op: ">=", Val: expr.Int(int64(n/500) - 3)}, // selective, clustered
		{Col: "day", Op: "<", Val: expr.Int(2)},
		{Col: "day", Op: "=", Val: expr.Int(7)},
		{Col: "day", Op: "!=", Val: expr.Int(0)},
		{Col: "day", Op: "<=", Val: expr.Int(-1)},              // empty result
		{Col: "day", Op: ">", Val: expr.Float(3.5)},            // cross-kind numeric ordering
		{Col: "name", Op: "=", Val: expr.Str("no-such-name")},  // string equality
		{Col: "name", Op: ">=", Val: expr.Str("n-029")},        // string ordering
		{Col: "day", Op: "=", Val: expr.Str("kind-mismatch")},  // Equal false everywhere
		{Col: "day", Op: "!=", Val: expr.Str("kind-mismatch")}, // Equal false ⇒ all rows qualify
		{Col: "v", Op: "=", Val: expr.Null()},                  // NULL literal: nothing qualifies
		{Col: "nope", Op: "=", Val: expr.Int(1)},               // unknown column: ignored
	}
	for ri := 0; ri < 40; ri++ { // plus random ordering predicates
		ops := []string{"<", "<=", ">", ">=", "=", "!="}
		preds = append(preds, PrunePredicate{
			Col: "day", Op: ops[rng.Intn(len(ops))], Val: expr.Int(rng.Int63n(n/500+4) - 2)})
	}

	full := collect(view.Cursor(nil))
	if len(full) != n {
		t.Fatalf("full scan returned %d rows, want %d", len(full), n)
	}
	ci, _ := view.ColumnIndex("day")
	for pi, p := range preds {
		cur := view.Cursor([]PrunePredicate{p})
		pruned := collect(cur)
		// (a) in-order subset of the full scan.
		fi := 0
		for _, r := range pruned {
			for fi < len(full) && !rowsIdentical([]Row{full[fi]}, []Row{r}) {
				fi++
			}
			if fi == len(full) {
				t.Fatalf("pred %d (%s %s %s): pruned output is not an in-order subset",
					pi, p.Col, p.Op, p.Val)
			}
			fi++
		}
		// (b) no qualifying row dropped.
		pci := ci
		if p.Col != "day" {
			pci, _ = view.ColumnIndex(p.Col)
		}
		want, got := 0, 0
		for _, r := range full {
			if p.Col != "nope" && satisfies(r[pci], p.Op, p.Val) {
				want++
			}
		}
		for _, r := range pruned {
			if p.Col != "nope" && satisfies(r[pci], p.Op, p.Val) {
				got++
			}
		}
		if p.Col == "nope" {
			if len(pruned) != n {
				t.Fatalf("unknown-column predicate pruned rows: %d of %d", len(pruned), n)
			}
			continue
		}
		if got != want {
			t.Fatalf("pred %d (%s %s %s): pruned scan keeps %d qualifying rows, full scan %d",
				pi, p.Col, p.Op, p.Val, got, want)
		}
	}

	// The selective clustered predicate must genuinely skip pages.
	sel := view.Cursor([]PrunePredicate{preds[0]})
	collect(sel)
	read, skipped := sel.Stats()
	if skipped == 0 || read == 0 {
		t.Fatalf("clustered selective predicate skipped %d pages (read %d); pruning inert", skipped, read)
	}

	// With pruning globally off the same cursor scans everything.
	prev := SetZoneMapPruning(false)
	defer SetZoneMapPruning(prev)
	off := view.Cursor([]PrunePredicate{preds[0]})
	if got := collect(off); len(got) != n {
		t.Fatalf("pruning disabled but cursor returned %d of %d rows", len(got), n)
	}
	if _, skipped := off.Stats(); skipped != 0 {
		t.Fatalf("pruning disabled but %d pages skipped", skipped)
	}
}

// TestCompressionRatio asserts the acceptance floor on warehouse-like
// data: format-2 encodings shrink the on-disk footprint by ≥30%
// against the raw baseline (same rows, TestingForceRaw).
func TestCompressionRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cols := []Column{
		{Name: "orderkey", Type: "int"},
		{Name: "qty", Type: "int"},
		{Name: "price", Type: "float"},
		{Name: "flag", Type: "string"},
		{Name: "status", Type: "string"},
		{Name: "shipmode", Type: "string"},
		{Name: "comment", Type: "string"},
	}
	flags := []string{"A", "N", "R"}
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	rows := make([]Row, 30000)
	for i := range rows {
		rows[i] = Row{
			expr.Int(int64(i / 4)), // clustered order keys: RLE/bit-pack fodder
			expr.Int(rng.Int63n(50) + 1),
			expr.Float(float64(rng.Int63n(10000000)) / 100),
			expr.Str(flags[rng.Intn(len(flags))]),
			expr.Str(flags[rng.Intn(2)]),
			expr.Str(modes[rng.Intn(len(modes))]),
			expr.Str(fmt.Sprintf("comment %d about the order", rng.Intn(500))),
		}
	}
	write := func(dir string) int64 {
		db := openDisk(t, dir)
		tbl, err := db.CreateTable("lineitem", cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.InsertAll(rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st := db.DiskStats()["lineitem"]
		if st.Segments == 0 || st.Bytes == 0 {
			t.Fatalf("DiskStats empty: %+v", st)
		}
		return st.Bytes
	}
	v2 := write(t.TempDir())
	TestingForceRaw = true
	defer func() { TestingForceRaw = false }()
	raw := write(t.TempDir())
	if ratio := 1 - float64(v2)/float64(raw); ratio < 0.30 {
		t.Fatalf("compression saves only %.1f%% (%d raw → %d encoded); acceptance floor is 30%%",
			ratio*100, raw, v2)
	}
}

// idValue is the id-th distinct value of a type (bool has two).
func idValue(typ string, id int) expr.Value {
	switch typ {
	case "int":
		return expr.Int(int64(id)*7919 - 1000)
	case "float":
		return expr.Float(float64(id)*0.5 - 3)
	case "string":
		return expr.Str(fmt.Sprintf("v%05d", id))
	}
	return expr.Bool(id%2 == 1)
}

// TestEncodePageMatchesReference holds the vector encoder to the bytes,
// zones and raw size of the row-walking encoder it replaced, over the
// grid the stats pass branches on — type × NULL placement × distinct
// count (one; exactly dictMaxCard; one more, so the dictionary is
// abandoned mid-chunk; all distinct) × value order (one run per value;
// values alternating) — and over random pages.
func TestEncodePageMatchesReference(t *testing.T) {
	const n = dictMaxCard + 200
	var reused chunkEncoder
	for _, typ := range []string{"int", "float", "string", "bool"} {
		for _, nulls := range []string{"none", "all", "sparse"} {
			for _, distinct := range []int{1, dictMaxCard, dictMaxCard + 1, n} {
				for _, order := range []string{"runs", "alternating"} {
					rng := rand.New(rand.NewSource(int64(distinct)))
					rows := make([]Row, n)
					for i := range rows {
						id := i % distinct
						if order == "runs" {
							id = i * distinct / n
						}
						rows[i] = Row{idValue(typ, id)}
						if nullPatterns[nulls](rng, i, n) {
							rows[i] = Row{expr.Null()}
						}
					}
					if err := pageMatchesReference([]Column{{Name: "c", Type: typ}}, rows, &reused); err != nil {
						t.Errorf("%s, nulls %s, %d distinct, %s: %v", typ, nulls, distinct, order, err)
					}
				}
			}
		}
	}
	types := []string{"int", "float", "string", "bool"}
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 120; round++ {
		cols := make([]Column, 1+rng.Intn(4))
		distinct := make([]int, len(cols))
		runLen := make([]int, len(cols))
		nullOneIn := make([]int, len(cols))
		for ci := range cols {
			cols[ci] = Column{Name: fmt.Sprintf("c%d", ci), Type: types[rng.Intn(len(types))]}
			distinct[ci] = 1 + rng.Intn([]int{2, 40, 6000}[rng.Intn(3)])
			runLen[ci] = 1 + rng.Intn([]int{1, 5, 400}[rng.Intn(3)])
			nullOneIn[ci] = []int{0, 1, 3, 50}[rng.Intn(4)]
		}
		rows := make([]Row, rng.Intn(7000))
		for i := range rows {
			rows[i] = make(Row, len(cols))
			for ci, c := range cols {
				if i%runLen[ci] != 0 {
					rows[i][ci] = rows[i-1][ci]
				} else if nullOneIn[ci] == 0 || rng.Intn(nullOneIn[ci]) != 0 {
					rows[i][ci] = idValue(c.Type, rng.Intn(distinct[ci]))
				}
			}
		}
		if err := pageMatchesReference(cols, rows, &reused); err != nil {
			t.Fatalf("round %d (%v, %d rows): %v", round, cols, len(rows), err)
		}
	}
}

// TestEncodePageMatchesReferenceEdges pins the values the typed loops
// could plausibly treat differently from expr.Value.Compare and
// bit-identity.
func TestEncodePageMatchesReferenceEdges(t *testing.T) {
	nan := func(payload uint64) expr.Value { return expr.Float(math.Float64frombits(0x7ff8000000000000 | payload)) }
	negZero := expr.Float(math.Copysign(0, -1))
	ints := func(xs ...int64) []expr.Value {
		out := make([]expr.Value, len(xs))
		for i, x := range xs {
			out[i] = expr.Int(x)
		}
		return out
	}
	str := func(n int) expr.Value { return expr.Str(strings.Repeat("s", n)) }
	cases := []struct {
		name string
		typ  string
		vals []expr.Value
	}{
		{"NaN payloads are distinct runs", "float", []expr.Value{nan(1), nan(1), nan(2), nan(2), nan(1), expr.Float(1)}},
		{"NaN drops bounds wherever it sits", "float", []expr.Value{expr.Float(1), expr.Float(2), nan(7)}},
		{"-0 then +0", "float", []expr.Value{negZero, expr.Float(0), negZero, negZero, expr.Float(0)}},
		{"+0 then -0", "float", []expr.Value{expr.Float(0), negZero, expr.Float(0)}},
		{"+Inf", "float", []expr.Value{expr.Float(1), expr.Float(math.Inf(1)), expr.Float(2)}},
		{"-Inf first", "float", []expr.Value{expr.Float(math.Inf(-1)), expr.Float(2)}},
		{"NULL between equal floats", "float", []expr.Value{expr.Float(4), expr.Null(), expr.Float(4), expr.Null(), expr.Null()}},
		{"string of zoneMaxStr bytes keeps bounds", "string", []expr.Value{str(3), str(zoneMaxStr), str(5)}},
		{"string one byte longer drops them", "string", []expr.Value{str(3), str(zoneMaxStr + 1), str(5)}},
		{"empty strings", "string", []expr.Value{str(0), str(0), expr.Null(), str(0), str(1)}},
		{"int span 0", "int", ints(-17, -17, -17, -17)},
		{"int span 2^63-1", "int", ints(0, math.MaxInt64, 5, 0)},
		{"int span overflows int64", "int", ints(math.MinInt64, math.MaxInt64, -1, 0, 1)},
		{"ints that round to one float, low first", "int", ints(math.MinInt64, math.MinInt64+1, math.MaxInt64-1, math.MaxInt64)},
		{"ints that round to one float, high first", "int", ints(math.MinInt64+1, math.MinInt64, math.MaxInt64, math.MaxInt64-1)},
		{"2^53 neighbours", "int", ints(1<<53+1, 1<<53, 1<<53+2, -(1<<53 + 1), -(1 << 53))},
		{"bools, only true", "bool", []expr.Value{expr.Bool(true), expr.Null(), expr.Bool(true)}},
		{"bools, only false", "bool", []expr.Value{expr.Bool(false), expr.Bool(false)}},
		{"bools, both", "bool", []expr.Value{expr.Bool(true), expr.Bool(false), expr.Bool(true)}},
		{"no rows", "int", nil},
	}
	var reused chunkEncoder
	for _, tc := range cases {
		// Once as given and once repeated, so run-length and dictionary
		// bodies win over raw and their writers are compared too.
		for _, repeat := range []int{1, 40} {
			var rows []Row
			for _, v := range tc.vals {
				for k := 0; k < repeat; k++ {
					rows = append(rows, Row{v})
				}
			}
			if err := pageMatchesReference([]Column{{Name: "c", Type: tc.typ}}, rows, &reused); err != nil {
				t.Errorf("%s (×%d): %v", tc.name, repeat, err)
			}
		}
	}
	// An oversize row is a page of its own; the rows around it are not.
	wide := []Column{{Name: "s", Type: "string"}, {Name: "i", Type: "int"}}
	oversize := []Row{
		{expr.Str("before"), expr.Int(1)},
		{expr.Str(strings.Repeat("x", 2*pageSize)), expr.Int(2)},
		{expr.Str("after"), expr.Null()},
	}
	if err := matchesReference(wide, oversize); err != nil {
		t.Errorf("oversize row: %v", err)
	}
	// No table has zero columns (newTable refuses), but the encoder must
	// not be what breaks on one: the page is its row-count word.
	if err := pageMatchesReference(nil, []Row{{}, {}, {}}, &reused); err != nil {
		t.Errorf("empty column list: %v", err)
	}
}
