// Package sqlgen implements the MD side of Quarry's Design Deployer
// (§2.4): translating a unified, platform-independent DW design into
// PostgreSQL-dialect DDL, exactly the artifact the paper's Figure 3
// shows (CREATE DATABASE / CREATE TABLE fact_table_revenue …), plus
// star-join OLAP query templates for the deployed schema.
//
// The deployed physical schema is derived from the unified xLM
// design's Loader operations (their inferred input schemas are the
// table layouts the ETL produces), enriched with the primary-key and
// foreign-key metadata the Requirements Interpreter records on each
// loader.
package sqlgen

import (
	"fmt"
	"sort"
	"strings"

	"quarry/internal/xlm"
	"quarry/internal/xmd"
)

// pgType maps logical types to PostgreSQL column types.
func pgType(t string) string {
	switch t {
	case "int":
		return "BIGINT"
	case "float":
		return "double precision"
	case "string":
		return "VARCHAR(128)"
	case "bool":
		return "BOOLEAN"
	default:
		return "TEXT"
	}
}

// quoteIdent quotes an SQL identifier.
func quoteIdent(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// TableDef is one deployable table derived from a loader.
type TableDef struct {
	Name        string
	Columns     []xlm.Field
	PrimaryKey  []string
	ForeignKeys []ForeignKey
}

// ForeignKey references a column of another deployed table.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// Tables derives the deployable table definitions from a validated
// design's loaders, one table per loader (xlm.Design.Validate refuses
// a second loader of one table).
func Tables(d *xlm.Design) ([]TableDef, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	var out []TableDef
	for _, n := range d.Nodes() {
		if n.Type != xlm.OpLoader {
			continue
		}
		cols := append([]xlm.Field(nil), d.Inputs(n.Name)[0].Fields...)
		def := TableDef{Name: n.Param("table"), Columns: cols}
		if keys := strings.TrimSpace(n.Param("keys")); keys != "" {
			for _, k := range strings.Split(keys, ",") {
				if k = strings.TrimSpace(k); k != "" {
					def.PrimaryKey = append(def.PrimaryKey, k)
				}
			}
		}
		if refs := strings.TrimSpace(n.Param("refs")); refs != "" {
			for _, r := range strings.Split(refs, ",") {
				r = strings.TrimSpace(r)
				if r == "" {
					continue
				}
				eq := strings.SplitN(r, "=", 2)
				if len(eq) != 2 {
					return nil, fmt.Errorf("sqlgen: loader %q has malformed ref %q", n.Name, r)
				}
				dot := strings.SplitN(eq[1], ".", 2)
				if len(dot) != 2 {
					return nil, fmt.Errorf("sqlgen: loader %q has malformed ref target %q", n.Name, eq[1])
				}
				def.ForeignKeys = append(def.ForeignKeys, ForeignKey{
					Column: strings.TrimSpace(eq[0]), RefTable: dot[0], RefColumn: dot[1],
				})
			}
		}
		out = append(out, def)
	}
	// Dimensions before facts so FK targets exist (facts carry refs).
	sort.SliceStable(out, func(i, j int) bool {
		fi, fj := len(out[i].ForeignKeys) > 0, len(out[j].ForeignKeys) > 0
		if fi != fj {
			return !fi
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// DDL renders the full PostgreSQL deployment script for a design:
// CREATE DATABASE plus one CREATE TABLE per deployed table, with
// primary and foreign keys.
func DDL(database string, d *xlm.Design) (string, error) {
	tables, err := Tables(d)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE DATABASE %s;\n\n", quoteIdent(database))
	for _, t := range tables {
		fmt.Fprintf(&b, "CREATE TABLE %s (\n", quoteIdent(t.Name))
		for i, c := range t.Columns {
			fmt.Fprintf(&b, "  %s %s", quoteIdent(c.Name), pgType(c.Type))
			if i < len(t.Columns)-1 || len(t.PrimaryKey) > 0 || len(t.ForeignKeys) > 0 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		if len(t.PrimaryKey) > 0 {
			cols := make([]string, len(t.PrimaryKey))
			for i, k := range t.PrimaryKey {
				cols[i] = quoteIdent(k)
			}
			fmt.Fprintf(&b, "  PRIMARY KEY (%s)", strings.Join(cols, ", "))
			if len(t.ForeignKeys) > 0 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		for i, fk := range t.ForeignKeys {
			fmt.Fprintf(&b, "  FOREIGN KEY (%s) REFERENCES %s (%s)",
				quoteIdent(fk.Column), quoteIdent(fk.RefTable), quoteIdent(fk.RefColumn))
			if i < len(t.ForeignKeys)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString(");\n\n")
	}
	return b.String(), nil
}

// StarQuery renders a sample OLAP star-join query for a fact of the
// MD schema against the deployed tables: the kind of query the
// deployed DW answers, used in documentation and smoke tests.
func StarQuery(md *xmd.Schema, etl *xlm.Design, factTable string) (string, error) {
	tables, err := Tables(etl)
	if err != nil {
		return "", err
	}
	var fact *TableDef
	for i := range tables {
		if tables[i].Name == factTable {
			fact = &tables[i]
		}
	}
	if fact == nil {
		return "", fmt.Errorf("sqlgen: fact table %q not deployed", factTable)
	}
	if len(fact.ForeignKeys) == 0 {
		return "", fmt.Errorf("sqlgen: table %q has no dimension references", factTable)
	}
	var selects, joins, groups []string
	seenDim := map[string]bool{}
	for _, fk := range fact.ForeignKeys {
		if !seenDim[fk.RefTable] {
			seenDim[fk.RefTable] = true
			joins = append(joins, fmt.Sprintf("JOIN %s ON %s.%s = %s.%s",
				quoteIdent(fk.RefTable),
				quoteIdent(factTable), quoteIdent(fk.Column),
				quoteIdent(fk.RefTable), quoteIdent(fk.RefColumn)))
			// First non-key column of the dimension is the natural
			// label to group by.
			for _, t := range tables {
				if t.Name != fk.RefTable {
					continue
				}
				for _, c := range t.Columns {
					isKey := false
					for _, k := range t.PrimaryKey {
						if c.Name == k {
							isKey = true
						}
					}
					if !isKey && c.Type == "string" {
						q := quoteIdent(fk.RefTable) + "." + quoteIdent(c.Name)
						selects = append(selects, q)
						groups = append(groups, q)
						break
					}
				}
			}
		}
	}
	// Aggregate every measure column (non-PK columns of the fact).
	for _, c := range fact.Columns {
		isKey := false
		for _, k := range fact.PrimaryKey {
			if c.Name == k {
				isKey = true
			}
		}
		if !isKey && (c.Type == "float" || c.Type == "int") {
			selects = append(selects, fmt.Sprintf("SUM(%s.%s) AS %s",
				quoteIdent(factTable), quoteIdent(c.Name), quoteIdent(c.Name+"_total")))
		}
	}
	if len(groups) == 0 {
		return "", fmt.Errorf("sqlgen: no groupable dimension labels for %q", factTable)
	}
	return fmt.Sprintf("SELECT %s\nFROM %s\n%s\nGROUP BY %s\nORDER BY %s;",
		strings.Join(selects, ", "),
		quoteIdent(factTable),
		strings.Join(joins, "\n"),
		strings.Join(groups, ", "),
		strings.Join(groups, ", ")), nil
}
