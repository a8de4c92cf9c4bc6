package xmd

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// The xMD XML dialect follows the paper's Figure 3/4 snippets:
//
//	<MDschema name="demo">
//	  <facts>
//	    <fact>
//	      <name>fact_table_revenue</name>
//	      <concept>Lineitem</concept>
//	      <measures>
//	        <measure name="revenue" type="float" additivity="flow">
//	          <formula>Lineitem.l_extendedprice * (1 - Lineitem.l_discount)</formula>
//	        </measure>
//	      </measures>
//	      <uses>
//	        <use dimension="Part" level="Part"/>
//	      </uses>
//	    </fact>
//	  </facts>
//	  <dimensions>
//	    <dimension name="Part">
//	      <level name="Part" concept="Part" key="p_name">
//	        <descriptor name="p_name" type="string" attr="Part.p_name"/>
//	      </level>
//	      <rollup from="Part" to="Brand"/>
//	    </dimension>
//	  </dimensions>
//	</MDschema>

type xmlSchema struct {
	XMLName    xml.Name       `xml:"MDschema"`
	Name       string         `xml:"name,attr"`
	Facts      []xmlFact      `xml:"facts>fact"`
	Dimensions []xmlDimension `xml:"dimensions>dimension"`
}

type xmlFact struct {
	Name     string       `xml:"name"`
	Concept  string       `xml:"concept,omitempty"`
	Measures []xmlMeasure `xml:"measures>measure"`
	Uses     []xmlUse     `xml:"uses>use"`
}

type xmlMeasure struct {
	Name       string `xml:"name,attr"`
	Type       string `xml:"type,attr"`
	Additivity string `xml:"additivity,attr,omitempty"`
	Formula    string `xml:"formula,omitempty"`
}

type xmlUse struct {
	Dimension string `xml:"dimension,attr"`
	Level     string `xml:"level,attr"`
}

type xmlDimension struct {
	Name     string      `xml:"name,attr"`
	Temporal bool        `xml:"temporal,attr,omitempty"`
	Levels   []xmlLevel  `xml:"level"`
	Rollups  []xmlRollup `xml:"rollup"`
}

type xmlLevel struct {
	Name        string          `xml:"name,attr"`
	Concept     string          `xml:"concept,attr,omitempty"`
	Key         string          `xml:"key,attr,omitempty"`
	Descriptors []xmlDescriptor `xml:"descriptor"`
}

type xmlDescriptor struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"`
	Attr string `xml:"attr,attr,omitempty"`
}

type xmlRollup struct {
	From string `xml:"from,attr"`
	To   string `xml:"to,attr"`
}

// Write serialises the schema as xMD XML.
func Write(w io.Writer, s *Schema) error {
	doc := xmlSchema{Name: s.Name}
	for _, f := range s.Facts {
		xf := xmlFact{Name: f.Name, Concept: f.Concept}
		for _, m := range f.Measures {
			xf.Measures = append(xf.Measures, xmlMeasure{
				Name: m.Name, Type: m.Type, Additivity: string(m.Additivity), Formula: m.Formula,
			})
		}
		for _, u := range f.Uses {
			xf.Uses = append(xf.Uses, xmlUse{Dimension: u.Dimension, Level: u.Level})
		}
		doc.Facts = append(doc.Facts, xf)
	}
	for _, d := range s.Dimensions {
		xd := xmlDimension{Name: d.Name, Temporal: d.Temporal}
		for _, l := range d.Levels {
			xl := xmlLevel{Name: l.Name, Concept: l.Concept, Key: l.Key}
			for _, desc := range l.Descriptors {
				xl.Descriptors = append(xl.Descriptors, xmlDescriptor{Name: desc.Name, Type: desc.Type, Attr: desc.Attr})
			}
			xd.Levels = append(xd.Levels, xl)
		}
		for _, r := range d.Rollups {
			xd.Rollups = append(xd.Rollups, xmlRollup{From: r.From, To: r.To})
		}
		doc.Dimensions = append(doc.Dimensions, xd)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("xmd: encode: %w", err)
	}
	return enc.Flush()
}

// Marshal returns the xMD XML text of a schema.
func Marshal(s *Schema) (string, error) {
	var b strings.Builder
	if err := Write(&b, s); err != nil {
		return "", err
	}
	return b.String(), nil
}
