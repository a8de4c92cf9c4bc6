package xlm

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The xLM XML dialect follows the paper's Figure 3/4 snippets:
//
//	<design name="etl_revenue">
//	  <metadata>
//	    <entry key="requirement" value="IR1"/>
//	  </metadata>
//	  <edges>
//	    <edge>
//	      <from>DATASTORE_Partsupp</from>
//	      <to>EXTRACTION_Partsupp</to>
//	      <enabled>Y</enabled>
//	    </edge>
//	  </edges>
//	  <nodes>
//	    <node>
//	      <name>DATASTORE_Partsupp</name>
//	      <type>Datastore</type>
//	      <optype>TableInput</optype>
//	      <schema><field name="ps_partkey" type="int"/></schema>
//	      <params><param name="table">partsupp</param></params>
//	    </node>
//	  </nodes>
//	</design>

type xmlDesign struct {
	XMLName  xml.Name   `xml:"design"`
	Name     string     `xml:"name,attr"`
	Metadata []xmlEntry `xml:"metadata>entry"`
	Edges    []xmlEdge  `xml:"edges>edge"`
	Nodes    []xmlNode  `xml:"nodes>node"`
}

type xmlEntry struct {
	Key   string `xml:"key,attr"`
	Value string `xml:"value,attr"`
}

type xmlEdge struct {
	From    string `xml:"from"`
	To      string `xml:"to"`
	Enabled string `xml:"enabled"`
}

type xmlNode struct {
	Name   string     `xml:"name"`
	Type   string     `xml:"type"`
	Optype string     `xml:"optype,omitempty"`
	Schema []xmlField `xml:"schema>field"`
	Params []xmlParam `xml:"params>param"`
}

type xmlField struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"`
}

type xmlParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// Write serialises the design as xLM XML with deterministic ordering.
func Write(w io.Writer, d *Design) error {
	doc := xmlDesign{Name: d.Name}
	keys := make([]string, 0, len(d.Metadata))
	for k := range d.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		doc.Metadata = append(doc.Metadata, xmlEntry{Key: k, Value: d.Metadata[k]})
	}
	for _, e := range d.edges {
		doc.Edges = append(doc.Edges, xmlEdge{From: e.From, To: e.To, Enabled: "Y"})
	}
	for _, n := range d.nodes {
		xn := xmlNode{Name: n.Name, Type: string(n.Type), Optype: n.Optype}
		for _, f := range n.Fields {
			xn.Schema = append(xn.Schema, xmlField{Name: f.Name, Type: f.Type})
		}
		pkeys := make([]string, 0, len(n.Params))
		for k := range n.Params {
			pkeys = append(pkeys, k)
		}
		sort.Strings(pkeys)
		for _, k := range pkeys {
			xn.Params = append(xn.Params, xmlParam{Name: k, Value: n.Params[k]})
		}
		doc.Nodes = append(doc.Nodes, xn)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("xlm: encode: %w", err)
	}
	return enc.Flush()
}

// Marshal returns the xLM XML text of a design.
func Marshal(d *Design) (string, error) {
	var b strings.Builder
	if err := Write(&b, d); err != nil {
		return "", err
	}
	return b.String(), nil
}
