package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// Wire format of the partial-aggregate protocol: the body a shard
// returns from POST /api/olap/partial and the router feeds into Merge
// is one binary frame, every integer little-endian:
//
//	magic "QPRT", frame version (one byte)
//	shard index, shard count (int32 each), epoch (uint64)
//	columns (uint32 count, then each a uint32 length and its bytes),
//	group columns (int32), aggregates (uint32 count, then each its
//	function and output name as strings)
//	the dice: its group positions (uint32 count, then each an int32),
//	thresholds (uint32 count, then each as float64 bits) and SUM carat
//	column (a string, empty for COUNT); no position for an undiced query
//	N, the cell count (uint32)
//	one vector per group column
//	per aggregate: N raw int64 counts; for SUM and AVG the int sums as
//	an int vector whose NULL rows mark sum-is-int false, then the float
//	sums' parts (uint32 word count, then float64 bits, a zero word ending
//	each cell); for MIN the minima and for MAX the maxima as a vector
//	CRC32C (Castagnoli) of every byte before it
//
// A vector is a kind byte (expr.Kind) and a uint32 length, then for a
// typed kind the page chunk storage.AppendVector writes — the pages'
// bytes and decoders, with their fuzzing — and for the mixed form
// (KindNull) a uint32 dictionary size, each entry a kind byte and its
// value, and N uint32 codes, noCode for a NULL row. Floats travel as
// their IEEE-754 bits everywhere, so NaN payloads and −0 survive and
// the merged answer stays byte-identical.
//
// A diced frame's aggregates end in the hidden carat ones
// (engine.Dice.CaratFuncs), which its columns do not name: the cells
// carry them so that the gather cuts the diamond after its merge.
//
// The decoder trusts nothing. After the magic and the version, the
// checksum is checked before any field is read. N may not pass a cell
// per eight frame bytes (every aggregate carries a raw 8-byte count per
// cell), and the compressed vectors may not decode to more than eight
// entries per frame byte between them, so every allocation is bounded
// by the frame's length before it is made. A dice spec is refused
// unless its positions are distinct group columns, one threshold each,
// and the aggregates end in its carat's. A frame of another version is
// refused naming both: router and shards ship together, and a retry
// cannot heal a mixed fleet. Version 1 had no dice.

// frameVersion is the layout this build writes and reads.
const frameVersion = 2

var (
	frameMagic = [4]byte{'Q', 'P', 'R', 'T'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// noCode is a NULL row's code in a mixed-form vector.
const noCode = math.MaxUint32

// AggWire echoes one declared aggregate so the gather side can build
// its merge aggregator without knowing the schema.
type AggWire struct {
	Func string
	Out  string
}

// PartialResponse is a shard's partial answer.
type PartialResponse struct {
	// Shard identity + epoch, validated by Merge: indexes must cover
	// exactly 0..ShardCount-1 and every epoch must agree.
	ShardIndex int
	ShardCount int
	Epoch      uint64
	// Result shape: output column names (group columns first), how
	// many of them are group columns, and the declared aggregates.
	Columns   []string
	GroupCols int
	Aggs      []AggWire
	// Groups is the shard's group states as the kernel exports them.
	Groups engine.Cells
	// Dice is the query's dice, which Merge cuts after the merge; nil
	// when undiced.
	Dice *engine.Dice
}

// EncodePartial builds the partial answer from a shard-local partial
// aggregation (the olap layer's pre-merge states). The cells are
// shared, not copied. A diced query's partial sets Dice on the result.
func EncodePartial(index, count int, epoch uint64, columns []string, groupCols int, aggs []xlm.AggSpec, groups engine.Cells) *PartialResponse {
	resp := &PartialResponse{ShardIndex: index, ShardCount: count, Epoch: epoch,
		Columns: append([]string(nil), columns...), GroupCols: groupCols, Groups: groups}
	for _, a := range aggs {
		resp.Aggs = append(resp.Aggs, AggWire{Func: a.Func, Out: a.Out})
	}
	return resp
}

// DecodeGroups returns the cells, refusing a key vector that cannot be
// read: a NULL bitmap of the wrong size or a code past its dictionary.
// That every column holds N entries is checked where the cells are
// absorbed (engine.HashAggregator.Absorb).
func (r *PartialResponse) DecodeGroups() (engine.Cells, error) {
	for j, v := range r.Groups.Keys {
		if err := checkVector(v); err != nil {
			return engine.Cells{}, fmt.Errorf("shard: key column %d: %w", j, err)
		}
	}
	return r.Groups, nil
}

// checkDice refuses a dice no query has: a position that is not a
// group column or repeats one, a threshold count other than the
// positions', aggregates that do not end in the carat's hidden ones. It
// returns how many hidden aggregates there are.
func checkDice(d *engine.Dice, groupCols int, aggs []AggWire) (hidden int, err error) {
	if d == nil {
		return 0, nil
	}
	seen := make(map[int]bool, len(d.Pos))
	for _, p := range d.Pos {
		if p < 0 || p >= groupCols || seen[p] {
			return 0, fmt.Errorf("dice on group positions %v of %d", d.Pos, groupCols)
		}
		seen[p] = true
	}
	funcs := d.CaratFuncs()
	if len(d.Pos) == 0 || len(d.Thresholds) != len(d.Pos) {
		return 0, fmt.Errorf("dice of %d positions and %d thresholds", len(d.Pos), len(d.Thresholds))
	}
	if len(aggs) < len(funcs) || !slices.EqualFunc(aggs[len(aggs)-len(funcs):], funcs, func(a AggWire, fn string) bool { return a.Func == fn }) {
		return 0, fmt.Errorf("dice with carat %q over aggregates %+v, which do not end in %v", d.Carat, aggs, funcs)
	}
	return len(funcs), nil
}

// checkVector checks that every row of v can be read.
func checkVector(v *storage.Vector) error {
	if v == nil {
		return fmt.Errorf("no vector")
	}
	n := v.Len()
	if v.Nulls != nil && len(v.Nulls) != (n+63)/64 {
		return fmt.Errorf("NULL bitmap of %d words for %d rows", len(v.Nulls), n)
	}
	for i, code := range v.Codes {
		if v.Coded() && !v.IsNull(i) && int(code) >= len(v.Dict) {
			return fmt.Errorf("row %d: code %d past a dictionary of %d", i, code, len(v.Dict))
		}
	}
	return nil
}

// MarshalBinary writes the frame. It refuses cells that do not fit the
// shape — a key vector per group column, a state set per aggregate, N
// entries in every column the aggregate's function reads, no selection
// — since the frame does not repeat N per column.
func (r *PartialResponse) MarshalBinary() ([]byte, error) {
	c := &r.Groups
	fits := c.N >= 0 && !c.Picked() && len(c.Keys) == r.GroupCols && len(c.States) == len(r.Aggs)
	for _, k := range c.Keys {
		fits = fits && checkVector(k) == nil && k.Len() == c.N
	}
	for i := 0; fits && i < len(r.Aggs); i++ {
		fits = c.States[i].Fits(r.Aggs[i].Func, c.N)
	}
	if !fits {
		return nil, fmt.Errorf("shard: %d cells in %d key and %d state columns do not fit %d group columns and %d aggregates",
			c.N, len(c.Keys), len(c.States), r.GroupCols, len(r.Aggs))
	}
	b := append(append([]byte(nil), frameMagic[:]...), frameVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.ShardIndex))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.ShardCount))
	b = binary.LittleEndian.AppendUint64(b, r.Epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Columns)))
	for _, col := range r.Columns {
		b = appendStr(b, col)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(r.GroupCols))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Aggs)))
	for _, a := range r.Aggs {
		b = appendStr(appendStr(b, a.Func), a.Out)
	}
	var dice engine.Dice
	if r.Dice != nil {
		dice = *r.Dice
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dice.Pos)))
	for _, p := range dice.Pos {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dice.Thresholds)))
	for _, t := range dice.Thresholds {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	}
	b = appendStr(b, dice.Carat)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.N))
	for _, k := range c.Keys {
		b = appendVector(b, k)
	}
	for i, a := range r.Aggs {
		s := &c.States[i]
		for _, n := range s.Counts {
			b = binary.LittleEndian.AppendUint64(b, uint64(n))
		}
		switch a.Func {
		case "SUM", "AVG":
			ints := &storage.Vector{Kind: expr.KindInt, Ints: s.IntSums, Nulls: make([]uint64, (c.N+63)/64)}
			for g, isInt := range s.SumIsInt {
				if !isInt {
					ints.Nulls[g>>6] |= 1 << (uint(g) & 63)
				}
			}
			b = appendVector(b, ints)
			b = appendSums(b, s.Sums)
		case "MIN":
			b = appendVector(b, storage.VectorOf(s.Mins))
		case "MAX":
			b = appendVector(b, storage.VectorOf(s.Maxs))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

func appendStr(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

// appendVector appends a vector: its kind byte and length, then a
// typed vector's page chunk or the mixed form's dictionary and codes.
func appendVector(b []byte, v *storage.Vector) []byte {
	b = append(b, byte(v.Kind), 0, 0, 0, 0)
	at := len(b)
	if v.Kind != expr.KindNull {
		b = storage.AppendVector(b, v)
	} else {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v.Dict)))
		for _, x := range v.Dict {
			b = appendValue(b, x)
		}
		for i, code := range v.Codes {
			if v.IsNull(i) {
				code = noCode
			}
			b = binary.LittleEndian.AppendUint32(b, code)
		}
	}
	binary.LittleEndian.PutUint32(b[at-4:], uint32(len(b)-at))
	return b
}

// appendValue appends a kind-tagged value of a mixed-form dictionary.
func appendValue(b []byte, x expr.Value) []byte {
	b = append(b, byte(x.Kind()))
	switch x.Kind() {
	case expr.KindInt:
		return binary.LittleEndian.AppendUint64(b, uint64(x.AsInt()))
	case expr.KindFloat:
		f, _ := x.AsFloat()
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	case expr.KindString:
		return appendStr(b, x.AsString())
	case expr.KindBool:
		if x.AsBool() {
			return append(b, 1)
		}
		return append(b, 0)
	}
	return b
}

// appendSums appends the cells' float sums: a word count, then each
// cell's expansion parts as bits, its non-finite accumulator when it
// saw a non-finite input (which re-adds as itself), and a zero word. No
// part is zero and the accumulator is never finite, so the zero ends
// the cell.
func appendSums(b []byte, sums []engine.FloatSum) []byte {
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	for g := range sums {
		parts, special, has := sums[g].Export()
		if has {
			parts = append(parts, special)
		}
		for _, p := range parts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
		}
		b = binary.LittleEndian.AppendUint64(b, 0)
	}
	binary.LittleEndian.PutUint32(b[at:], uint32((len(b)-at-4)/8))
	return b
}

// MarshalJSON wraps the frame as one base64 string. It and
// UnmarshalJSON exist only because the per-layer benchmark
// (bench/layers) measures the wire with json.Marshal(EncodePartial(…))
// and json.Unmarshal, so its shard.wire.* numbers time this codec and
// its checksum. The HTTP path never calls them: it writes and reads the
// frame itself.
func (r *PartialResponse) MarshalJSON() ([]byte, error) {
	frame, err := r.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return json.Marshal(frame)
}

// UnmarshalJSON reads what MarshalJSON writes.
func (r *PartialResponse) UnmarshalJSON(b []byte) error {
	var frame []byte
	if err := json.Unmarshal(b, &frame); err != nil {
		return err
	}
	return r.UnmarshalBinary(frame)
}

// UnmarshalBinary reads a frame, refusing one that is corrupt, of
// another version, or whose columns do not hold the N cells it
// declares. On an error r is left as it was.
func (r *PartialResponse) UnmarshalBinary(frame []byte) error {
	if len(frame) < len(frameMagic)+1+4 || [4]byte(frame) != frameMagic {
		return fmt.Errorf("shard: not a partial frame (%d bytes)", len(frame))
	}
	if v := frame[len(frameMagic)]; v != frameVersion {
		return fmt.Errorf("shard: partial frame of version %d, this build reads version %d", v, frameVersion)
	}
	body := frame[:len(frame)-4]
	if sum, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(frame[len(body):]); sum != want {
		return fmt.Errorf("shard: partial frame checksum %08x, its trailer says %08x", sum, want)
	}
	d := &frameReader{b: body[len(frameMagic)+1:], entries: 8 * len(frame)}
	out := PartialResponse{ShardIndex: int(int32(d.u32())), ShardCount: int(int32(d.u32())), Epoch: d.u64()}
	for i := d.u32(); i > 0 && d.err == nil; i-- {
		out.Columns = append(out.Columns, string(d.bytes()))
	}
	out.GroupCols = int(int32(d.u32()))
	for i := d.u32(); i > 0 && d.err == nil; i-- {
		out.Aggs = append(out.Aggs, AggWire{Func: string(d.bytes()), Out: string(d.bytes())})
	}
	var dice engine.Dice
	for i := d.u32(); i > 0 && d.err == nil; i-- {
		dice.Pos = append(dice.Pos, int(int32(d.u32())))
	}
	for i := d.u32(); i > 0 && d.err == nil; i-- {
		dice.Thresholds = append(dice.Thresholds, math.Float64frombits(d.u64()))
	}
	if dice.Carat = string(d.bytes()); len(dice.Pos)+len(dice.Thresholds) > 0 || dice.Carat != "" {
		out.Dice = &dice
	}
	n := d.u32()
	switch {
	case d.err != nil:
	case out.GroupCols < 0:
		d.fail("%d group columns", out.GroupCols)
	case uint64(n) > uint64(len(frame))/8:
		d.fail("%d bytes declare %d cells", len(frame), n)
	default:
		_, d.err = checkDice(out.Dice, out.GroupCols, out.Aggs)
	}
	c := &out.Groups
	c.N = int(n)
	for j := 0; j < out.GroupCols && d.err == nil; j++ {
		c.Keys = append(c.Keys, d.vector(c.N))
	}
	c.States = make([]engine.StateCols, len(out.Aggs))
	for i, a := range out.Aggs {
		s := &c.States[i]
		if b := d.take(8 * uint64(c.N)); b != nil {
			s.Counts = make([]int64, c.N)
			for g := range s.Counts {
				s.Counts[g] = int64(binary.LittleEndian.Uint64(b[8*g:]))
			}
		}
		switch a.Func {
		case "SUM", "AVG":
			if ints := d.vector(c.N); ints != nil && ints.Kind != expr.KindInt {
				d.fail("int sums of kind %s", ints.Kind)
			} else if ints != nil {
				s.IntSums, s.SumIsInt = ints.Ints, make([]bool, c.N)
				for g := range s.SumIsInt {
					s.SumIsInt[g] = !ints.IsNull(g)
				}
			}
			s.Sums = d.sums(c.N)
		case "MIN":
			s.Mins = d.values(c.N)
		case "MAX":
			s.Maxs = d.values(c.N)
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d bytes after the last column", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("shard: partial frame: %w", d.err)
	}
	*r = out
	return nil
}

// frameReader reads a frame's fields in order. The first error sticks:
// every later read returns zero values, so a decode reads straight
// through and checks once.
type frameReader struct {
	b   []byte
	err error
	// entries is what the compressed vectors may still decode to.
	entries int
}

func (d *frameReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes, or nil when the frame is shorter.
func (d *frameReader) take(n uint64) []byte {
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail("truncated: %d bytes wanted, %d left", n, len(d.b))
	}
	if d.err != nil {
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *frameReader) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *frameReader) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *frameReader) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// bytes reads a uint32 length and that many bytes.
func (d *frameReader) bytes() []byte { return d.take(uint64(d.u32())) }

// vector reads a vector of n rows written by appendVector: a typed one
// through the page decoders, the mixed form as values.
func (d *frameReader) vector(n int) *storage.Vector {
	kind, b := expr.Kind(d.u8()), d.bytes()
	switch {
	case d.err != nil:
		return nil
	case kind == expr.KindNull:
		if vals := d.mixed(b, n); d.err == nil {
			return storage.VectorOf(vals)
		}
		return nil
	}
	if d.entries -= n; d.entries < 0 {
		d.fail("vectors decode to more entries than the frame has room for")
		return nil
	}
	v, err := storage.DecodeVector(b, kind, n)
	if err != nil {
		d.fail("%s vector: %v", kind, err)
	}
	return v
}

// mixed reads the n rows of a mixed-form vector's payload.
func (d *frameReader) mixed(b []byte, n int) []expr.Value {
	m := &frameReader{b: b}
	var dict []expr.Value
	for i := m.u32(); i > 0 && m.err == nil; i-- {
		dict = append(dict, m.value())
	}
	codes := m.take(4 * uint64(n))
	if m.err == nil && len(m.b) != 0 {
		m.fail("%d bytes after the codes", len(m.b))
	}
	vals := make([]expr.Value, 0, len(codes)/4)
	for i := 0; i < len(codes) && m.err == nil; i += 4 {
		switch code := binary.LittleEndian.Uint32(codes[i:]); {
		case code == noCode:
			vals = append(vals, expr.Null())
		case int(code) < len(dict):
			vals = append(vals, dict[code])
		default:
			m.fail("code %d past a dictionary of %d", code, len(dict))
		}
	}
	if m.err != nil {
		d.fail("mixed vector: %v", m.err)
	}
	return vals
}

// value reads a kind-tagged dictionary value.
func (d *frameReader) value() expr.Value {
	switch kind := expr.Kind(d.u8()); kind {
	case expr.KindInt:
		return expr.Int(int64(d.u64()))
	case expr.KindFloat:
		return expr.Float(math.Float64frombits(d.u64()))
	case expr.KindString:
		return expr.Str(string(d.bytes()))
	case expr.KindBool:
		return expr.Bool(d.u8() != 0)
	default:
		d.fail("dictionary value of kind %d", kind)
	}
	return expr.Null()
}

// values reads a vector of n rows as values (MIN, MAX).
func (d *frameReader) values(n int) []expr.Value {
	v := d.vector(n)
	if v == nil {
		return nil
	}
	out := make([]expr.Value, n)
	for i := range out {
		out[i] = v.Value(i)
	}
	return out
}

// sums reads n cells' float sums written by appendSums.
func (d *frameReader) sums(n int) []engine.FloatSum {
	words := d.take(8 * uint64(d.u32()))
	if d.err != nil {
		return nil
	}
	out := make([]engine.FloatSum, 0, n)
	var parts []float64
	for i := 0; i < len(words) && len(out) <= n; i += 8 {
		if bits := binary.LittleEndian.Uint64(words[i:]); bits != 0 {
			parts = append(parts, math.Float64frombits(bits))
		} else {
			out, parts = append(out, engine.ImportFloatSum(parts, 0, false)), parts[:0]
		}
	}
	if len(out) != n || len(parts) != 0 {
		d.fail("float sums of %d cells and %d trailing parts, want %d cells", len(out), len(parts), n)
	}
	return out
}
