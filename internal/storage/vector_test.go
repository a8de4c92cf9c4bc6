package storage

// The vector form of a chunk: corrupt bytes are rejected before they
// are believed, vectors agree with rows value for value on every
// backend, and the chunk decoders hold both under fuzzing.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"quarry/internal/expr"
)

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// threeRowPage is a one-column page of three rows whose chunk is in
// the given encoding (the stats pass would rarely pick a compressed one
// for so few).
func threeRowPage(typ string, enc int, vals ...expr.Value) ([]Column, []byte) {
	cols := []Column{{Name: "c", Type: typ}}
	rows := make([]Row, len(vals))
	for i, v := range vals {
		rows[i] = Row{v}
	}
	var e chunkEncoder
	e.build(wholeTail(tailOf(cols, rows)), 0, typ)
	body := e.appendBody([]byte{byte(enc)}, enc)
	page := binary.LittleEndian.AppendUint32(nil, uint32(len(rows)))
	page = binary.LittleEndian.AppendUint32(page, uint32(len(body)))
	return cols, append(page, body...)
}

// tagAt is the offset of a one-column page's encoding tag: after the
// row count and the chunk length.
const tagAt = 8

func TestDecodeRejectsCorruptPages(t *testing.T) {
	dictCols, dictPage := threeRowPage("string", encDict, expr.Str("aa"), expr.Str("bb"), expr.Str("cc"))
	rleCols, rlePage := threeRowPage("int", encRLE, expr.Int(7), expr.Int(7), expr.Int(7))
	rawCols, rawPage := threeRowPage("string", encRaw, expr.Str("x"), expr.Str("y"), expr.Str("z"))
	for i, page := range [][]byte{dictPage, rlePage, rawPage} {
		cols := [][]Column{dictCols, rleCols, rawCols}[i]
		if _, err := decodePage(cols, page, 3); err != nil {
			t.Fatalf("uncorrupted page %d: %v", i, err)
		}
	}
	edit := func(page []byte, at int, b ...byte) []byte {
		out := append([]byte(nil), page...)
		copy(out[at:], b)
		return out
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cases := []struct {
		name string
		cols []Column
		page []byte
		want string
	}{
		{"truncated header", dictCols, dictPage[:3], "shorter than header"},
		{"truncated chunk", dictCols, dictPage[:tagAt+2], "chunk truncated"},
		{"oversized row count", dictCols, edit(dictPage, 0, u32(1<<20)...), "manifest says 3"},
		{"undersized row count", dictCols, edit(dictPage, 0, u32(2)...), "manifest says 3"},
		{"bad encoding tag", dictCols, edit(dictPage, tagAt, 9), "unknown encoding tag"},
		{"dictionary larger than the page", dictCols, edit(dictPage, tagAt+1, u32(4000)...), "cardinality"},
		// The count, three entries of 4+2 bytes, the width byte (2 bits:
		// code 3 names no entry), the bitmap, then the codes.
		{"code beyond the dictionary", dictCols, edit(dictPage, tagAt+1+4+18+1+1, 0xff), "out of range"},
		{"run overflows the page", rleCols, edit(rlePage, tagAt+1, u32(4)...), "overflows page"},
		{"empty run", rleCols, edit(rlePage, tagAt+1, u32(0)...), "overflows page"},
		{"string longer than the chunk", rawCols, edit(rawPage, tagAt+1+1, u32(1<<30)...), "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errRows, errVecs error
			spent := allocatedBy(func() {
				_, errRows = decodePage(tc.cols, tc.page, 3)
				_, errVecs = decodePageVectors(tc.cols, tc.page, 3, []bool{true})
			})
			for form, err := range map[string]error{"rows": errRows, "vectors": errVecs} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: err = %v, want one mentioning %q", form, err, tc.want)
				}
			}
			if spent > 64<<10 {
				t.Errorf("decoding a three-row page allocated %d bytes", spent)
			}
		})
	}
}

// TestCorruptRowCountOnDisk flips the row count of a committed page in
// its segment file: the read must fail on the disagreement with the
// manifest, not size its allocations from the flipped bytes. (The read
// API has no error channel: corruption is a panic.)
func TestCorruptRowCountOnDisk(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", []Column{{Name: "a", Type: "int"}, {Name: "b", Type: "string"}, {Name: "c", Type: "float"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tbl.Insert(Row{expr.Int(int64(i)), expr.Str("s"), expr.Float(1.5)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(binary.LittleEndian.AppendUint32(nil, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir) // a fresh pool: nothing decoded yet
	if err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("t")
	reads := map[string]func(){
		"rows":    func() { view.Cursor(nil).Next(16) },
		"vectors": func() { view.Cursor(nil).NextVectors([]int{0, 1, 2}, make([]*Vector, 3)) },
	}
	for form, read := range reads {
		var failure any
		spent := allocatedBy(func() {
			defer func() { failure = recover() }()
			read()
		})
		if msg := fmt.Sprint(failure); !strings.Contains(msg, "manifest says 3") {
			t.Errorf("%s: read of a corrupt page ended with %v, want a panic naming the manifest's row count", form, failure)
		}
		if spent > 1<<20 {
			t.Errorf("%s: a three-row page with a flipped row count allocated %d bytes", form, spent)
		}
	}
}

// vectorTestRows is a table whose pages differ in dictionary and cover
// every encoding: per page of ~perPage rows, a string column drawing on
// its own few values (dictionary), a float constant within the page
// (run-length), a narrow int (bit-packed), a random float (raw) and a
// bool, with NULLs throughout.
func vectorTestRows(rng *rand.Rand, n, perPage int) ([]Column, []Row) {
	cols := []Column{{Name: "s", Type: "string"}, {Name: "run", Type: "float"}, {Name: "narrow", Type: "int"},
		{Name: "f", Type: "float"}, {Name: "b", Type: "bool"}, {Name: "pad", Type: "string"}}
	rows := make([]Row, n)
	for i := range rows {
		page := i / perPage
		rows[i] = Row{
			expr.Str(fmt.Sprintf("p%d-%d", page, rng.Intn(4))),
			expr.Float(float64(page)),
			expr.Int(1000 + rng.Int63n(200)),
			expr.Float(rng.NormFloat64()),
			expr.Bool(rng.Intn(2) == 0),
			expr.Str(strings.Repeat("x", 180)), // fills pages quickly
		}
		if null := rng.Intn(24); null < len(cols)-1 {
			rows[i][null] = expr.Null()
		}
	}
	return cols, rows
}

// encodingsOf lists the chunk encodings a view's committed pages use.
func encodingsOf(t *testing.T, view *TableView) map[int]bool {
	t.Helper()
	tags := map[int]bool{}
	for _, seg := range view.pg.segs {
		for i, pm := range seg.pages {
			err := pageChunks(seg.cols, seg.read(i), pm.rows, func(ci, enc int, body []byte) error {
				tags[enc] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return tags
}

// TestVectorsMatchRows reads the same table through Next and through
// NextVectors — all of it an uncommitted tail ("mem"), committed to
// heap segments, checkpointed to files, and files plus a tail — and
// demands the same values, the same chunking of pages, and the same
// pruning statistics.
func TestVectorsMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cols, rows := vectorTestRows(rng, 3000, 300)
	backends := map[string]func(t *testing.T) *DB{
		"mem": func(t *testing.T) *DB {
			db := NewMemDB()
			tbl, err := db.CreateTable("t", cols)
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.InsertAll(rows); err != nil {
				t.Fatal(err)
			}
			return db
		},
		"heap": func(t *testing.T) *DB { return tableWithTail(t, NewMemDB(), cols, rows, len(rows)) },
		"disk": func(t *testing.T) *DB { return diskTableWithTail(t, cols, rows, len(rows)) },
		"tail": func(t *testing.T) *DB { return diskTableWithTail(t, cols, rows, 2000) },
	}
	preds := [][]PrunePredicate{nil, {{Col: "run", Op: ">=", Val: expr.Float(4)}}, {{Col: "s", Op: "=", Val: expr.Str("p2-1")}}}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			snap, err := open(t).Snapshot("t")
			if err != nil {
				t.Fatal(err)
			}
			view, _ := snap.Table("t")
			if name == "disk" || name == "heap" {
				if tags := encodingsOf(t, view); len(tags) != 4 {
					t.Fatalf("the pages use encodings %v, want raw, dictionary, run-length and bit-packed", tags)
				}
			}
			for _, pp := range preds {
				want := view.Cursor(pp)
				var wantRows []Row
				for batch := want.Next(1 << 20); batch != nil; batch = want.Next(1 << 20) {
					wantRows = append(wantRows, batch...)
				}
				// Ask for a subset, out of order and with a repeat.
				ask := []int{3, 0, 4, 0, 2, 1}
				got := view.Cursor(pp)
				vecs := make([]*Vector, len(ask))
				at := 0
				for n := got.NextVectors(ask, vecs); n > 0; n = got.NextVectors(ask, vecs) {
					for j, ci := range ask {
						if vecs[j].Len() != n {
							t.Fatalf("column %d: vector of %d rows in a chunk of %d", ci, vecs[j].Len(), n)
						}
						for r := 0; r < n; r++ {
							if w, g := wantRows[at+r][ci], vecs[j].Value(r); !valIdentical(w, g) {
								t.Fatalf("row %d column %d: vector says %s, rows say %s", at+r, ci, g, w)
							}
						}
					}
					at += n
				}
				if at != len(wantRows) {
					t.Fatalf("vectors covered %d rows, rows %d", at, len(wantRows))
				}
				wr, ws := want.Stats()
				gr, gs := got.Stats()
				if wr != gr || ws != gs {
					t.Fatalf("pages read/skipped: vectors %d/%d, rows %d/%d", gr, gs, wr, ws)
				}
				if pp != nil && name != "mem" && gs == 0 {
					t.Fatalf("predicate %v pruned no page", pp)
				}
			}
		})
	}
}

// diskTableWithTail opens a disk DB holding table t: the first
// committed rows in checkpointed segments, the rest as an uncommitted
// tail.
func diskTableWithTail(t *testing.T, cols []Column, rows []Row, committed int) *DB {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return tableWithTail(t, db, cols, rows, committed)
}

// tableWithTail creates table t in db: the first committed rows in
// checkpointed segments, the rest as an uncommitted tail.
func tableWithTail(t *testing.T, db *DB, cols []Column, rows []Row, committed int) *DB {
	t.Helper()
	tbl, err := db.CreateTable("t", cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAll(rows[:committed]); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAll(rows[committed:]); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestVectorsShareThePool holds row and vector readers to one pool
// entry per page and one decoded form. A row walk decodes every
// column's vector; a vector read then finds them resident — no new
// entry, no new charge, no second decode. Read the other way round, a
// row walk adds only the columns the vector reader left undecoded.
func TestVectorsShareThePool(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols, rows := vectorTestRows(rng, 1200, 300)
	open := func() (*TableView, *pageCache) {
		db := diskTableWithTail(t, cols, rows, len(rows))
		snap, err := db.Snapshot("t")
		if err != nil {
			t.Fatal(err)
		}
		view, _ := snap.Table("t")
		return view, db.store.cache
	}
	view, pool := open()
	for cur := view.Cursor(nil); cur.Next(1<<20) != nil; {
	}
	entries, charged := len(pool.m), pool.used
	if entries == 0 || charged == 0 {
		t.Fatalf("a row walk left %d entries charged %d bytes", entries, charged)
	}
	vecs := make([]*Vector, 2)
	for cur := view.Cursor(nil); cur.NextVectors([]int{0, 3}, vecs) > 0; {
	}
	if len(pool.m) != entries || pool.used != charged {
		t.Fatalf("vector reads after a row walk: %d entries charged %d, want %d charged %d",
			len(pool.m), pool.used, entries, charged)
	}
	first := vecs[0]
	for cur := view.Cursor(nil); cur.NextVectors([]int{0}, vecs) > 0; {
	}
	if vecs[0] != first {
		t.Fatal("a resident vector was decoded again")
	}

	view, pool = open()
	for cur := view.Cursor(nil); cur.NextVectors([]int{0, 3}, vecs) > 0; {
	}
	entries, partial := len(pool.m), pool.used
	last := vecs[1]
	for cur := view.Cursor(nil); cur.Next(1<<20) != nil; {
	}
	if len(pool.m) != entries || pool.used != charged {
		t.Fatalf("a row walk after vector reads: %d entries charged %d, want %d charged %d (%d before)",
			len(pool.m), pool.used, entries, charged, partial)
	}
	ent := pool.lru.Front().Value.(*pageEntry)
	if ent.vecs[3] != last {
		t.Fatal("the row walk decoded a resident column again")
	}
}

// FuzzDecodeChunk feeds arbitrary chunk bodies to the chunk decoders.
// The vector form and the row form (built from the same decode through
// the page frame) must both refuse the chunk or agree on every value,
// and neither may panic or hold more than the declared rows.
func FuzzDecodeChunk(f *testing.F) {
	types := []string{"int", "float", "string", "bool"}
	// Seeds: every chunk the encoders emit for the adversarial column
	// shapes of the quick-check suite.
	seen := map[string]bool{}
	for ti, typ := range types {
		for _, gen := range genPatterns(typ) {
			for _, isNull := range nullPatterns {
				rng := rand.New(rand.NewSource(int64(ti)))
				rows := make([]Row, 40)
				for i := range rows {
					rows[i] = Row{gen(rng, i)}
					if isNull(rng, i, len(rows)) {
						rows[i] = Row{expr.Null()}
					}
				}
				buf := encodePage([]Column{{Name: "c", Type: typ}}, rows).buf
				chunk := buf[tagAt : tagAt+int(binary.LittleEndian.Uint32(buf[4:]))]
				if !seen[string(chunk)] {
					seen[string(chunk)] = true
					f.Add(uint8(ti), uint16(len(rows)), chunk[0], chunk[1:])
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, ti uint8, n uint16, enc uint8, body []byte) {
		typ := types[int(ti)%len(types)]
		rowCount := int(n % 2048)
		var vec Vector
		errVec := decodeChunk(int(enc), body, rowCount, typ, &vec)
		// The same chunk inside a one-column page.
		page := binary.LittleEndian.AppendUint32(nil, uint32(rowCount))
		page = binary.LittleEndian.AppendUint32(page, uint32(len(body)+1))
		page = append(append(page, enc), body...)
		rows, errRows := decodePage([]Column{{Name: "c", Type: typ}}, page, rowCount)
		if (errVec == nil) != (errRows == nil) {
			t.Fatalf("vector decode: %v; row decode: %v", errVec, errRows)
		}
		if errVec != nil {
			return
		}
		if vec.Len() != rowCount || len(rows) != rowCount || len(vec.Dict) > rowCount+2 {
			t.Fatalf("declared %d rows: vector holds %d (dictionary %d), rows %d", rowCount, vec.Len(), len(vec.Dict), len(rows))
		}
		for i, row := range rows {
			if !valIdentical(row[0], vec.Value(i)) {
				t.Fatalf("row %d: rows say %s, vector says %s", i, row[0], vec.Value(i))
			}
		}
	})
}

// fuzzChunk spends data on the rows of a one-column page: a byte per
// row says NULL, repeat the row above (runs), a small value (few
// distinct) or a wide one read from the bytes that follow.
func fuzzChunk(typ string, data []byte) []Row {
	var rows []Row
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002), math.MaxFloat64}
	for len(data) > 0 && len(rows) < 6000 {
		op := take(1)[0]
		var v expr.Value
		switch {
		case op&7 == 0:
		case op&7 == 1 && len(rows) > 0:
			v = rows[len(rows)-1][0]
		case typ == "int" && op&8 != 0:
			v = expr.Int(int64(binary.LittleEndian.Uint64(append(take(8), make([]byte, 8)...))))
		case typ == "int":
			v = expr.Int(int64(op >> 4))
		case typ == "float" && op&8 != 0:
			v = expr.Float(math.Float64frombits(binary.LittleEndian.Uint64(append(take(8), make([]byte, 8)...))))
		case typ == "float":
			v = expr.Float(floats[int(op>>4)%len(floats)])
		case typ == "string" && op&8 != 0:
			v = expr.Str(string(take(8)))
		case typ == "string": // lengths step across zoneMaxStr
			v = expr.Str(strings.Repeat(string(take(1)), int(op>>4)*9))
		default:
			v = expr.Bool(op&8 != 0)
		}
		rows = append(rows, Row{v})
	}
	return rows
}

// wholeTail is every row of chunks as one page.
func wholeTail(chunks []*chunk) []span {
	var page []span
	for _, c := range chunks {
		page = append(page, span{c: c, hi: c.n})
	}
	return page
}

// vectorTail appends rows to a table of cols the way the ETL Loader
// does — column vectors, each batch with dictionaries of its own, in
// batches of uneven sizes — and returns the table's tail chunks.
func vectorTail(t testing.TB, cols []Column, rows []Row) []*chunk {
	t.Helper()
	tbl, err := newTable("t", cols)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 700, 3, 1024, 64, 2500}
	vals := make([]expr.Value, 0, len(rows))
	for lo, k := 0, 0; lo < len(rows); k++ {
		hi := min(lo+sizes[k%len(sizes)], len(rows))
		vecs := make([]*Vector, len(cols))
		for ci := range cols {
			vals = vals[:0]
			for _, r := range rows[lo:hi] {
				vals = append(vals, r[ci])
			}
			vecs[ci] = VectorOf(vals)
		}
		if err := tbl.AppendVectors(hi-lo, vecs); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	_, tail := tbl.capture()
	return tail
}

// FuzzEncodeRoundTrip builds a typed column from the fuzzer's bytes,
// appends it to a table's tail as vector batches, and holds the encoder
// to three things at once: the page it renders from the tail is the
// reference encoder's from the rows, byte for byte and zone for zone;
// the chunk decodes back to the vector the encoder built; and that
// vector is the rows.
func FuzzEncodeRoundTrip(f *testing.F) {
	types := []string{"int", "float", "string", "bool"}
	rng := rand.New(rand.NewSource(5))
	for ti := range types {
		f.Add(uint8(ti), []byte{})
		f.Add(uint8(ti), []byte{0, 0, 0})
		short := make([]byte, 300)
		rng.Read(short)
		f.Add(uint8(ti), short)
		// Long enough for more than dictMaxCard distinct wide values.
		long := make([]byte, 9*(dictMaxCard+200))
		rng.Read(long)
		for i := 0; i < len(long); i += 9 {
			long[i] |= 0x0a // a wide value: never NULL, never a repeat
		}
		f.Add(uint8(ti), long)
	}
	f.Fuzz(func(t *testing.T, ti uint8, data []byte) {
		typ := types[int(ti)%len(types)]
		cols := []Column{{Name: "c", Type: typ}}
		rows := fuzzChunk(typ, data)
		var e chunkEncoder
		ep := e.encode(cols, wholeTail(vectorTail(t, cols, rows)))
		if err := samePage(ep, encodePageReference(cols, rows)); err != nil {
			t.Fatal(err)
		}
		vecs, err := decodePageVectors(cols, ep.buf, len(rows), []bool{true})
		if err != nil {
			t.Fatalf("the encoder's page does not decode: %v", err)
		}
		if got, built := vecs[0].Len(), e.vec.Len(); got != len(rows) || built != len(rows) {
			t.Fatalf("%d rows in: encoder's vector holds %d, decoded vector %d", len(rows), built, got)
		}
		for i, row := range rows {
			if !valIdentical(row[0], e.vec.Value(i)) || !valIdentical(row[0], vecs[0].Value(i)) {
				t.Fatalf("row %d is %s: encoder's vector says %s, decoded vector %s", i, row[0], e.vec.Value(i), vecs[0].Value(i))
			}
		}
	})
}
