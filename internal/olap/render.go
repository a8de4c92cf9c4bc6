package olap

import (
	"encoding/json"

	"quarry/internal/expr"
)

// RenderRow formats one result row exactly the way the serving
// layer's JSON bodies do — the canonical textual form of a cube
// answer. String values render as their raw content (trimming quotes
// off the SQL-literal String() form would also eat legitimate
// leading/trailing apostrophes from the data); everything else uses
// Value.String, whose float rendering is shortest-round-trip, so
// textual equality of float cells is bit equality.
func RenderRow(row []expr.Value) []string {
	vals := make([]string, len(row))
	for i, v := range row {
		vals[i] = renderCell(v)
	}
	return vals
}

// renderCell is one cell of RenderRow.
func renderCell(v expr.Value) string {
	if v.Kind() == expr.KindString {
		return v.AsString()
	}
	return v.String()
}

// AppendBody appends the JSON document of a finalised answer to dst:
// POST /api/olap's 200 body, whichever node renders it — quarryd from
// its own result, the shard gather from a merge. Both render through
// this one function: that is what makes a scatter-gather answer
// byte-identical to a single node's HTTP body, not just numerically
// equal. The bytes are those json.Encoder writes for
// {"columns": columns, "rows": RenderRow of each row}, trailing
// newline included: nil columns are null, no rows is [], and the
// column names are encoding/json's own.
func AppendBody(dst []byte, columns []string, rows [][]expr.Value) []byte {
	names, _ := json.Marshal(columns)
	dst = append(append(append(dst, `{"columns":`...), names...), `,"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, renderCell(v))
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...)
}

// appendString appends s as a JSON string. Plain printable ASCII is
// copied between quotes; any other string is left to encoding/json, so
// its escaping (HTML characters, control bytes, invalid UTF-8,
// U+2028/2029) is encoding/json's by construction.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
