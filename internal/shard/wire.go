package shard

import (
	"fmt"
	"math"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/storage"
	"quarry/internal/xlm"
)

// Wire format of the partial-aggregate protocol: the JSON body a
// shard returns from POST /api/olap/partial and the router feeds into
// Merge. The groups travel as the kernel exports them (engine.Cells):
// one vector per group column and one set of state columns per
// aggregate, never one object per group. Every float64 travels as its
// IEEE-754 bit pattern in a uint64 — encoding/json round-trips integers
// up to 2^64 exactly, while float JSON text would mangle NaN/Inf
// outright and any decimal rendering shorter than bit-exact would break
// the byte-identity contract the whole protocol exists for.
//
// The columns sit under "groups" as an object, where bodies before the
// columnar form had an array: a router and a shard of the two forms
// fail each other's decode (a 502), and never merge to an empty answer.

// ValueWire is one expr.Value on the wire. Kind uses the expr kind
// names ("null", "int", "float", "string", "bool").
type ValueWire struct {
	Kind string `json:"k"`
	Int  int64  `json:"i,omitempty"`
	Bits uint64 `json:"f,omitempty"` // math.Float64bits for Kind "float"
	Str  string `json:"s,omitempty"`
	Bool bool   `json:"b,omitempty"`
}

// EncodeValue converts a value to its wire form.
func EncodeValue(v expr.Value) ValueWire {
	w := ValueWire{Kind: v.Kind().String()}
	switch v.Kind() {
	case expr.KindInt:
		w.Int = v.AsInt()
	case expr.KindFloat:
		f, _ := v.AsFloat()
		w.Bits = math.Float64bits(f)
	case expr.KindString:
		w.Str = v.AsString()
	case expr.KindBool:
		w.Bool = v.AsBool()
	}
	return w
}

// Decode converts a wire value back. Unknown kinds are an error, not
// a NULL: a corrupt or version-skewed peer must fail the query, never
// feed wrong values into a merge.
func (w ValueWire) Decode() (expr.Value, error) {
	switch w.Kind {
	case "null", "":
		return expr.Null(), nil
	case "int":
		return expr.Int(w.Int), nil
	case "float":
		return expr.Float(math.Float64frombits(w.Bits)), nil
	case "string":
		return expr.Str(w.Str), nil
	case "bool":
		return expr.Bool(w.Bool), nil
	default:
		return expr.Value{}, fmt.Errorf("shard: unknown value kind %q on the wire", w.Kind)
	}
}

// VectorWire is one column on the wire, mirroring storage.Vector: the
// kind's name ("null" for the mixed form), ints as they are, floats as
// bits, the other kinds as codes into a dictionary of wire values, and
// the NULL bitmap (bit i set = row i is NULL).
type VectorWire struct {
	Kind   string      `json:"k"`
	Ints   []int64     `json:"i,omitempty"`
	Floats []uint64    `json:"f,omitempty"`
	Codes  []uint32    `json:"c,omitempty"`
	Dict   []ValueWire `json:"d,omitempty"`
	Nulls  []uint64    `json:"n,omitempty"`
}

// StatesWire is one aggregate's state columns (engine.StateCols), a
// column the aggregate does not keep left out: counts as they are, MIN
// and MAX as vectors. The int sums are an int vector whose NULL bitmap
// is sum-is-int's complement: a cell that summed a float has no int sum
// (the kernel reads it only while sum-is-int holds). Sums holds the
// cells' float sums in turn, each as the bits of its expansion's parts,
// then, when it saw a non-finite input, its non-finite accumulator
// (which re-adds as itself), then a zero word — no part is zero and the
// accumulator is never finite, so the zero ends the cell.
type StatesWire struct {
	Counts  []int64     `json:"counts"`
	IntSums *VectorWire `json:"int_sums,omitempty"`
	Sums    []uint64    `json:"sums,omitempty"`
	Mins    *VectorWire `json:"mins,omitempty"`
	Maxs    *VectorWire `json:"maxs,omitempty"`
}

// CellsWire is a partial answer's group states (engine.Cells).
type CellsWire struct {
	N      int          `json:"n"`
	Keys   []VectorWire `json:"keys"`
	States []StatesWire `json:"states"`
}

// AggWire echoes one declared aggregate so the gather side can build
// its merge aggregator without knowing the schema.
type AggWire struct {
	Func string `json:"func"`
	Out  string `json:"out"`
}

// PartialResponse is the full body of a shard's partial answer.
type PartialResponse struct {
	// Shard identity + epoch, validated by Merge: indexes must cover
	// exactly 0..ShardCount-1 and every epoch must agree.
	ShardIndex int    `json:"shard_index"`
	ShardCount int    `json:"shard_count"`
	Epoch      uint64 `json:"epoch"`
	// Result shape: output column names (group columns first), how
	// many of them are group columns, and the declared aggregates.
	Columns   []string  `json:"columns"`
	GroupCols int       `json:"group_cols"`
	Aggs      []AggWire `json:"aggs"`
	Groups    CellsWire `json:"groups"`
}

// EncodePartial builds the wire body from a shard-local partial
// aggregation (the olap layer's pre-merge states).
func EncodePartial(index, count int, epoch uint64, columns []string, groupCols int, aggs []xlm.AggSpec, groups engine.Cells) *PartialResponse {
	resp := &PartialResponse{
		ShardIndex: index,
		ShardCount: count,
		Epoch:      epoch,
		Columns:    append([]string(nil), columns...),
		GroupCols:  groupCols,
		Groups:     CellsWire{N: groups.N, States: make([]StatesWire, len(groups.States))},
	}
	for _, a := range aggs {
		resp.Aggs = append(resp.Aggs, AggWire{Func: a.Func, Out: a.Out})
	}
	for _, k := range groups.Keys {
		resp.Groups.Keys = append(resp.Groups.Keys, encodeVector(k))
	}
	for i := range groups.States {
		c, w := &groups.States[i], &resp.Groups.States[i]
		w.Counts, w.Mins, w.Maxs = c.Counts, encodeValues(c.Mins), encodeValues(c.Maxs)
		if c.IntSums != nil {
			ints := make([]expr.Value, len(c.IntSums))
			for g, sum := range c.IntSums {
				if c.SumIsInt[g] {
					ints[g] = expr.Int(sum)
				}
			}
			w.IntSums = encodeValues(ints)
		}
		for g := range c.Sums {
			parts, special, has := c.Sums[g].Export()
			if has {
				parts = append(parts, special)
			}
			for _, p := range parts {
				w.Sums = append(w.Sums, math.Float64bits(p))
			}
			w.Sums = append(w.Sums, 0)
		}
	}
	return resp
}

func encodeVector(v *storage.Vector) VectorWire {
	w := VectorWire{Kind: v.Kind.String(), Ints: v.Ints, Floats: make([]uint64, len(v.Floats)), Codes: v.Codes, Dict: make([]ValueWire, len(v.Dict)), Nulls: v.Nulls}
	for i, f := range v.Floats {
		w.Floats[i] = math.Float64bits(f)
	}
	for i, x := range v.Dict {
		w.Dict[i] = EncodeValue(x)
	}
	return w
}

// encodeValues is a column of values as a vector; nil when the
// aggregate keeps none.
func encodeValues(vals []expr.Value) *VectorWire {
	if vals == nil {
		return nil
	}
	w := encodeVector(storage.VectorOf(vals))
	return &w
}

// DecodeGroups converts the wire columns back into the engine's. It
// refuses a vector that cannot be read — an unknown kind, a NULL bitmap
// of the wrong size, a code past its dictionary — and sum parts no zero
// word ends; that every column holds N entries is checked where the
// cells are absorbed (engine.HashAggregator.Absorb).
func (r *PartialResponse) DecodeGroups() (engine.Cells, error) {
	w := &r.Groups
	out := engine.Cells{N: w.N, States: make([]engine.StateCols, len(w.States))}
	for j := range w.Keys {
		k, err := w.Keys[j].decode()
		if err != nil {
			return engine.Cells{}, fmt.Errorf("shard: key column %d: %w", j, err)
		}
		out.Keys = append(out.Keys, k)
	}
	for i := range w.States {
		if err := w.States[i].decode(&out.States[i]); err != nil {
			return engine.Cells{}, fmt.Errorf("shard: aggregate %d: %w", i, err)
		}
	}
	return out, nil
}

// decode fills c with the state columns.
func (s *StatesWire) decode(c *engine.StateCols) error {
	ints, err := s.IntSums.values()
	if err != nil {
		return err
	}
	c.Counts, c.IntSums, c.SumIsInt = s.Counts, make([]int64, len(ints)), make([]bool, len(ints))
	for g, v := range ints {
		c.IntSums[g], c.SumIsInt[g] = v.AsInt(), !v.IsNull()
	}
	var parts []float64
	for _, b := range s.Sums {
		if b != 0 {
			parts = append(parts, math.Float64frombits(b))
			continue
		}
		c.Sums, parts = append(c.Sums, engine.ImportFloatSum(parts, 0, false)), parts[:0]
	}
	if len(parts) != 0 {
		return fmt.Errorf("%d sum parts after the last cell's", len(parts))
	}
	if c.Mins, err = s.Mins.values(); err == nil {
		c.Maxs, err = s.Maxs.values()
	}
	return err
}

// decode converts a wire vector back, checking that it can be read.
func (w *VectorWire) decode() (*storage.Vector, error) {
	kind, err := expr.ParseKind(w.Kind)
	if err != nil {
		return nil, err
	}
	v := &storage.Vector{Kind: kind, Ints: w.Ints, Floats: make([]float64, len(w.Floats)), Codes: w.Codes, Dict: make([]expr.Value, len(w.Dict)), Nulls: w.Nulls}
	for i, b := range w.Floats {
		v.Floats[i] = math.Float64frombits(b)
	}
	for i := range w.Dict {
		if v.Dict[i], err = w.Dict[i].Decode(); err != nil {
			return nil, err
		}
	}
	if n := v.Len(); v.Nulls != nil && len(v.Nulls) != (n+63)/64 {
		return nil, fmt.Errorf("NULL bitmap of %d words for %d rows", len(v.Nulls), n)
	}
	for i, code := range v.Codes {
		if v.Coded() && !v.IsNull(i) && int(code) >= len(v.Dict) {
			return nil, fmt.Errorf("row %d: code %d past a dictionary of %d", i, code, len(v.Dict))
		}
	}
	return v, nil
}

// values is a value column's values (MIN, MAX, int sums); nil when
// the column is absent.
func (w *VectorWire) values() ([]expr.Value, error) {
	if w == nil {
		return nil, nil
	}
	v, err := w.decode()
	if err != nil {
		return nil, err
	}
	vals := make([]expr.Value, v.Len())
	for i := range vals {
		vals[i] = v.Value(i)
	}
	return vals, nil
}
