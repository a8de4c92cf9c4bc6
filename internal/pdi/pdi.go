// Package pdi implements the ETL side of Quarry's Design Deployer
// (§2.4): exporting a unified xLM design as a Pentaho Data
// Integration (Kettle) transformation — the .ktr XML artifact the
// paper's Figure 3 shows (<transformation> with <order>/<hop> and
// <step> elements) and runs in its demonstration.
//
// The export maps each logical xLM operation to its PDI step type
// (Datastore→TableInput, Selection→FilterRows, Join→MergeJoin,
// Aggregation→GroupBy, …) and carries the operation parameters in
// the step bodies. The output is well-formed XML of the Kettle
// flavour; semantic fidelity is exercised natively by
// internal/engine, which executes the same designs.
package pdi

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"quarry/internal/xlm"
)

// StepType maps a logical operation to the PDI step type id.
func StepType(op xlm.OpType) string {
	switch op {
	case xlm.OpDatastore:
		return "TableInput"
	case xlm.OpExtraction:
		return "Dummy"
	case xlm.OpSelection:
		return "FilterRows"
	case xlm.OpProjection:
		return "SelectValues"
	case xlm.OpJoin:
		return "MergeJoin"
	case xlm.OpAggregation:
		return "GroupBy"
	case xlm.OpFunction:
		return "Calculator"
	case xlm.OpUnion:
		return "Append"
	case xlm.OpSort:
		return "SortRows"
	case xlm.OpSurrogateKey:
		return "CombinationLookup"
	case xlm.OpLoader:
		return "TableOutput"
	default:
		return "Dummy"
	}
}

type ktrDoc struct {
	XMLName xml.Name  `xml:"transformation"`
	Info    ktrInfo   `xml:"info"`
	Conn    ktrConn   `xml:"connection"`
	Order   ktrOrder  `xml:"order"`
	Steps   []ktrStep `xml:"step"`
}

type ktrInfo struct {
	Name        string `xml:"name"`
	Description string `xml:"description,omitempty"`
}

type ktrConn struct {
	Name     string `xml:"name"`
	Server   string `xml:"server"`
	Type     string `xml:"type"`
	Database string `xml:"database"`
}

type ktrOrder struct {
	Hops []ktrHop `xml:"hop"`
}

type ktrHop struct {
	From    string `xml:"from"`
	To      string `xml:"to"`
	Enabled string `xml:"enabled"`
}

type ktrStep struct {
	Name   string     `xml:"name"`
	Type   string     `xml:"type"`
	Copies int        `xml:"copies"`
	SQL    string     `xml:"sql,omitempty"`
	Table  string     `xml:"table,omitempty"`
	Cond   string     `xml:"condition,omitempty"`
	Keys   string     `xml:"keys,omitempty"`
	Aggs   string     `xml:"aggregates,omitempty"`
	Expr   string     `xml:"formula,omitempty"`
	Fields []ktrField `xml:"fields>field,omitempty"`
}

type ktrField struct {
	Name string `xml:"name"`
	Type string `xml:"type"`
}

// Write exports the design as a PDI transformation into w.
func Write(w io.Writer, d *xlm.Design, database string) error {
	if err := d.Validate(); err != nil {
		return err
	}
	doc := ktrDoc{
		Info: ktrInfo{Name: d.Name, Description: "Generated by Quarry Design Deployer"},
		Conn: ktrConn{Name: "quarry_dw", Server: "localhost", Type: "POSTGRESQL", Database: database},
	}
	for _, e := range d.Edges() {
		doc.Order.Hops = append(doc.Order.Hops, ktrHop{From: e.From, To: e.To, Enabled: "Y"})
	}
	for _, n := range d.Nodes() {
		step := ktrStep{Name: n.Name, Type: StepType(n.Type), Copies: 1}
		switch n.Type {
		case xlm.OpDatastore:
			cols := make([]string, len(n.Fields))
			for i, f := range n.Fields {
				cols[i] = f.Name
			}
			step.SQL = fmt.Sprintf("SELECT %s FROM %s", strings.Join(cols, ", "), n.Param("table"))
			step.Table = n.Param("table")
		case xlm.OpSelection:
			step.Cond = n.Param("predicate")
		case xlm.OpJoin:
			step.Keys = n.Param("on")
		case xlm.OpAggregation:
			step.Keys = n.Param("group")
			step.Aggs = n.Param("aggregates")
		case xlm.OpFunction:
			step.Expr = n.Param("name") + " = " + n.Param("expr")
		case xlm.OpSort:
			step.Keys = n.Param("by")
		case xlm.OpSurrogateKey:
			step.Keys = n.Param("on")
			step.Table = n.Param("key")
		case xlm.OpProjection:
			step.Keys = n.Param("columns")
		case xlm.OpLoader:
			step.Table = n.Param("table")
		}
		for _, f := range n.Fields {
			step.Fields = append(step.Fields, ktrField{Name: f.Name, Type: pdiType(f.Type)})
		}
		doc.Steps = append(doc.Steps, step)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("pdi: encode: %w", err)
	}
	return enc.Flush()
}

// Marshal returns the .ktr XML text for a design.
func Marshal(d *xlm.Design, database string) (string, error) {
	var b strings.Builder
	if err := Write(&b, d, database); err != nil {
		return "", err
	}
	return b.String(), nil
}

// pdiType maps logical types to Kettle value types.
func pdiType(t string) string {
	switch t {
	case "int":
		return "Integer"
	case "float":
		return "Number"
	case "string":
		return "String"
	case "bool":
		return "Boolean"
	default:
		return "String"
	}
}
