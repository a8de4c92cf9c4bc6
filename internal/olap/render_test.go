package olap_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"quarry/internal/expr"
	"quarry/internal/olap"
)

// Body is the oracle's JSON document of a finalised answer: the
// columns and each row as RenderRow renders it.
type Body struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// RenderBody renders a finalised result set the way POST /api/olap's
// body was once built before encoding/json wrote it. No rows is [],
// not null.
func RenderBody(columns []string, rows [][]expr.Value) Body {
	out := Body{Columns: columns, Rows: make([][]string, 0, len(rows))}
	for _, row := range rows {
		out.Rows = append(out.Rows, olap.RenderRow(row))
	}
	return out
}

// encodedBody is what json.Encoder writes for RenderBody: the bytes
// AppendBody must produce.
func encodedBody(t *testing.T, columns []string, rows [][]expr.Value) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(RenderBody(columns, rows)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// answerStrings are column names and string cells whose JSON spelling
// is not their bytes: HTML characters, quotes, apostrophes, the
// backslash, control bytes and DEL, invalid UTF-8, U+2028/2029 and
// other non-ASCII text.
var answerStrings = []string{
	"", "SPAIN", "Brand#23", "'80s rock'", "'", `say "hi"`, `a\b`, "<b>&amp;</b>", "a<b", "a>b", "a&b",
	"\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "\xff\xfe", "a\xc3", "  ",
	"é日本", "\U0001F600", "�",
}

// FuzzAnswerBody: AppendBody writes, after whatever dst holds, exactly
// the bytes json.Encoder writes over RenderBody, for fuzzer-chosen
// column names and string cells and for every kind of value: NULL,
// NaN, ±Inf, −0, any float, ints at int64's ends, bools; with nil,
// empty and named columns, and zero, empty and full rows.
func FuzzAnswerBody(f *testing.F) {
	for i, s := range answerStrings {
		f.Add(uint8(8), s, answerStrings[(i+1)%len(answerStrings)], int64(i)-8, math.Float64bits(float64(i)/3))
	}
	for shape := range uint8(9) {
		f.Add(shape, "", "", int64(0), uint64(0))
	}
	f.Add(uint8(255), "total", "x", int64(math.MinInt64), math.Float64bits(1e300))
	f.Fuzz(func(t *testing.T, shape uint8, col, cell string, n int64, fbits uint64) {
		var columns []string
		switch shape % 3 {
		case 1:
			columns = []string{}
		case 2:
			columns = []string{col, cell, "n"}
		}
		var rows [][]expr.Value
		switch shape / 3 % 3 {
		case 1:
			rows = [][]expr.Value{}
		case 2:
			rows = [][]expr.Value{
				{
					expr.Null(), expr.Str(cell), expr.Str(col), expr.Int(n), expr.Float(float64(n)),
					expr.Int(math.MaxInt64), expr.Int(math.MinInt64), expr.Float(math.Float64frombits(fbits)),
					expr.Float(math.NaN()), expr.Float(math.Inf(1)), expr.Float(math.Inf(-1)),
					expr.Float(math.Copysign(0, -1)), expr.Bool(true), expr.Bool(false),
				},
				{},
				{expr.Str(cell)},
			}
		}
		want := encodedBody(t, columns, rows)
		if got := olap.AppendBody(nil, columns, rows); !bytes.Equal(got, want) {
			t.Fatalf("AppendBody wrote\n%q\nencoding/json writes\n%q", got, want)
		}
		if got := olap.AppendBody([]byte("prefix"), columns, rows); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendBody after a prefix wrote\n%q", got)
		}
	})
}
