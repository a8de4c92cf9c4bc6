package olap

import "quarry/internal/expr"

// RenderRow formats one result row exactly the way the serving
// layer's JSON bodies do — the canonical textual form of a cube
// answer. String values render as their raw content (trimming quotes
// off the SQL-literal String() form would also eat legitimate
// leading/trailing apostrophes from the data); everything else uses
// Value.String, whose float rendering is shortest-round-trip, so
// textual equality of float cells is bit equality. Both quarryd and
// the shard gather router render through this one function: that is
// what makes a scatter-gather answer byte-identical to a single
// node's HTTP body, not just numerically equal.
func RenderRow(row []expr.Value) []string {
	vals := make([]string, len(row))
	for i, v := range row {
		if v.Kind() == expr.KindString {
			vals[i] = v.AsString()
		} else {
			vals[i] = v.String()
		}
	}
	return vals
}

// Body is the JSON document of a finalised answer: POST /api/olap's
// 200 body, whichever node renders it — quarryd from its own result,
// the shard gather from a merge.
type Body struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// RenderBody renders a finalised result set. No rows is [], not null.
func RenderBody(columns []string, rows [][]expr.Value) Body {
	out := Body{Columns: columns, Rows: make([][]string, 0, len(rows))}
	for _, row := range rows {
		out.Rows = append(out.Rows, RenderRow(row))
	}
	return out
}
