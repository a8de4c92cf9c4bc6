// Package tpch provides the TPC-H substrate the paper demonstrates
// Quarry on: the eight-relation source schema, a deterministic data
// generator (a scaled-down, seedable dbgen replacement), the TPC-H
// domain ontology with its source schema mappings, and the canonical
// information requirements of Figures 3–4 (revenue and net profit for
// parts ordered from Spain).
//
// Scaling: row counts are the official TPC-H SF=1 counts divided by
// 10,000 and multiplied by the scale factor, so ScaleFactor(1) yields
// a micro-instance (600 lineitems) suitable for tests, and
// ScaleFactor(100) a laptop-scale instance (60k lineitems) for
// benchmarks. Ratios between tables match the specification.
package tpch

import (
	"fmt"
	"math/rand"

	"quarry/internal/expr"
	"quarry/internal/mapping"
	"quarry/internal/ontology"
	"quarry/internal/sources"
	"quarry/internal/storage"
)

// StoreName is the datastore name used throughout.
const StoreName = "tpch"

// Sizes holds the per-relation row counts for a scale factor.
type Sizes struct {
	Region, Nation, Supplier, Part, Partsupp, Customer, Orders, Lineitem int
}

// SizesFor computes micro-TPC-H row counts for a scale factor.
func SizesFor(sf float64) Sizes {
	scale := func(base int) int {
		n := int(float64(base) * sf)
		if n < 1 {
			n = 1
		}
		return n
	}
	return Sizes{
		Region:   5,
		Nation:   25,
		Supplier: scale(1),   // 10,000 / 10,000
		Part:     scale(20),  // 200,000 / 10,000
		Partsupp: scale(80),  // 800,000 / 10,000
		Customer: scale(15),  // 150,000 / 10,000
		Orders:   scale(150), // 1,500,000 / 10,000
		Lineitem: scale(600), // ~6,000,000 / 10,000
	}
}

var nationNames = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
	"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
	"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
	"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
	"SPAIN", // index 24; the demo slicer
}

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nationRegion maps nation index → region index (fixed, spec-like).
var nationRegion = []int{
	0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 3,
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var partTypes = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var returnFlags = []string{"A", "N", "R"}

// Catalog builds the TPC-H source catalog with statistics for the
// given scale factor.
func Catalog(sf float64) (*sources.Catalog, error) {
	sz := SizesFor(sf)
	c := sources.NewCatalog()
	if _, err := c.AddStore(StoreName, "relational"); err != nil {
		return nil, err
	}
	add := func(name string, rows int, attrs []sources.Attribute, pk []string, fks []sources.ForeignKey, distinct map[string]int64) error {
		return c.AddRelation(StoreName, &sources.Relation{
			Name: name, Attributes: attrs, PrimaryKey: pk, ForeignKeys: fks,
			Stats: sources.Stats{Rows: int64(rows), Distinct: distinct},
		})
	}
	steps := []error{
		add("region", sz.Region,
			[]sources.Attribute{{Name: "r_regionkey", Type: "int"}, {Name: "r_name", Type: "string"}},
			[]string{"r_regionkey"}, nil, nil),
		add("nation", sz.Nation,
			[]sources.Attribute{
				{Name: "n_nationkey", Type: "int"}, {Name: "n_name", Type: "string"}, {Name: "n_regionkey", Type: "int"},
			},
			[]string{"n_nationkey"},
			[]sources.ForeignKey{{Columns: []string{"n_regionkey"}, RefRelation: "region", RefColumns: []string{"r_regionkey"}}},
			map[string]int64{"n_regionkey": int64(sz.Region)}),
		add("supplier", sz.Supplier,
			[]sources.Attribute{
				{Name: "s_suppkey", Type: "int"}, {Name: "s_name", Type: "string"},
				{Name: "s_nationkey", Type: "int"}, {Name: "s_acctbal", Type: "float"},
			},
			[]string{"s_suppkey"},
			[]sources.ForeignKey{{Columns: []string{"s_nationkey"}, RefRelation: "nation", RefColumns: []string{"n_nationkey"}}},
			map[string]int64{"s_nationkey": int64(sz.Nation)}),
		add("part", sz.Part,
			[]sources.Attribute{
				{Name: "p_partkey", Type: "int"}, {Name: "p_name", Type: "string"},
				{Name: "p_brand", Type: "string"}, {Name: "p_type", Type: "string"},
				{Name: "p_retailprice", Type: "float"},
			},
			[]string{"p_partkey"}, nil,
			map[string]int64{"p_brand": 25, "p_type": int64(len(partTypes))}),
		add("partsupp", sz.Partsupp,
			[]sources.Attribute{
				{Name: "ps_partkey", Type: "int"}, {Name: "ps_suppkey", Type: "int"},
				{Name: "ps_availqty", Type: "int"}, {Name: "ps_supplycost", Type: "float"},
			},
			[]string{"ps_partkey", "ps_suppkey"},
			[]sources.ForeignKey{
				{Columns: []string{"ps_partkey"}, RefRelation: "part", RefColumns: []string{"p_partkey"}},
				{Columns: []string{"ps_suppkey"}, RefRelation: "supplier", RefColumns: []string{"s_suppkey"}},
			},
			map[string]int64{"ps_partkey": int64(sz.Part), "ps_suppkey": int64(sz.Supplier)}),
		add("customer", sz.Customer,
			[]sources.Attribute{
				{Name: "c_custkey", Type: "int"}, {Name: "c_name", Type: "string"},
				{Name: "c_nationkey", Type: "int"}, {Name: "c_acctbal", Type: "float"},
				{Name: "c_mktsegment", Type: "string"},
			},
			[]string{"c_custkey"},
			[]sources.ForeignKey{{Columns: []string{"c_nationkey"}, RefRelation: "nation", RefColumns: []string{"n_nationkey"}}},
			map[string]int64{"c_nationkey": int64(sz.Nation), "c_mktsegment": int64(len(segments))}),
		add("orders", sz.Orders,
			[]sources.Attribute{
				{Name: "o_orderkey", Type: "int"}, {Name: "o_custkey", Type: "int"},
				{Name: "o_orderstatus", Type: "string"}, {Name: "o_totalprice", Type: "float"},
				{Name: "o_orderdate", Type: "string"}, {Name: "o_orderpriority", Type: "string"},
			},
			[]string{"o_orderkey"},
			[]sources.ForeignKey{{Columns: []string{"o_custkey"}, RefRelation: "customer", RefColumns: []string{"c_custkey"}}},
			map[string]int64{"o_custkey": int64(sz.Customer), "o_orderpriority": int64(len(priorities))}),
		add("lineitem", sz.Lineitem,
			[]sources.Attribute{
				{Name: "l_orderkey", Type: "int"}, {Name: "l_partkey", Type: "int"},
				{Name: "l_suppkey", Type: "int"}, {Name: "l_linenumber", Type: "int"},
				{Name: "l_quantity", Type: "float"}, {Name: "l_extendedprice", Type: "float"},
				{Name: "l_discount", Type: "float"}, {Name: "l_tax", Type: "float"},
				{Name: "l_returnflag", Type: "string"}, {Name: "l_shipdate", Type: "string"},
			},
			[]string{"l_orderkey", "l_linenumber"},
			[]sources.ForeignKey{
				{Columns: []string{"l_orderkey"}, RefRelation: "orders", RefColumns: []string{"o_orderkey"}},
				{Columns: []string{"l_partkey"}, RefRelation: "part", RefColumns: []string{"p_partkey"}},
				{Columns: []string{"l_suppkey"}, RefRelation: "supplier", RefColumns: []string{"s_suppkey"}},
			},
			map[string]int64{"l_orderkey": int64(sz.Orders), "l_partkey": int64(sz.Part), "l_suppkey": int64(sz.Supplier), "l_returnflag": 3}),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Ontology builds the TPC-H domain ontology: one concept per
// relation, datatype properties for the analytically relevant
// attributes, and the functional associations between them.
func Ontology() (*ontology.Ontology, error) {
	o := ontology.New("tpch")
	type prop struct{ name, typ, label string }
	concepts := []struct {
		id    string
		label string
		props []prop
	}{
		{"Region", "Region", []prop{{"r_name", "string", "region name"}}},
		{"Nation", "Nation", []prop{{"n_name", "string", "nation name"}}},
		{"Supplier", "Supplier", []prop{
			{"s_name", "string", "supplier name"}, {"s_acctbal", "float", "account balance"},
		}},
		{"Part", "Part", []prop{
			{"p_name", "string", "part name"}, {"p_brand", "string", "brand"},
			{"p_type", "string", "part type"}, {"p_retailprice", "float", "retail price"},
		}},
		{"Partsupp", "Part Supply", []prop{
			{"ps_availqty", "int", "available quantity"}, {"ps_supplycost", "float", "supply cost"},
		}},
		{"Customer", "Customer", []prop{
			{"c_name", "string", "customer name"}, {"c_acctbal", "float", "account balance"},
			{"c_mktsegment", "string", "market segment"},
		}},
		{"Orders", "Order", []prop{
			{"o_orderstatus", "string", "order status"}, {"o_totalprice", "float", "total price"},
			{"o_orderdate", "string", "order date"}, {"o_orderpriority", "string", "priority"},
		}},
		{"Lineitem", "Line Item", []prop{
			{"l_quantity", "float", "quantity"}, {"l_extendedprice", "float", "extended price"},
			{"l_discount", "float", "discount"}, {"l_tax", "float", "tax"},
			{"l_returnflag", "string", "return flag"}, {"l_shipdate", "string", "ship date"},
		}},
	}
	for _, c := range concepts {
		if _, err := o.AddConcept(c.id, c.label); err != nil {
			return nil, err
		}
		for _, p := range c.props {
			if err := o.AddProperty(c.id, p.name, p.typ, p.label); err != nil {
				return nil, err
			}
		}
	}
	rels := []struct{ id, dom, rng string }{
		{"lineitem_orders", "Lineitem", "Orders"},
		{"lineitem_partsupp", "Lineitem", "Partsupp"},
		{"partsupp_part", "Partsupp", "Part"},
		{"partsupp_supplier", "Partsupp", "Supplier"},
		{"supplier_nation", "Supplier", "Nation"},
		{"customer_nation", "Customer", "Nation"},
		{"orders_customer", "Orders", "Customer"},
		{"nation_region", "Nation", "Region"},
	}
	for _, r := range rels {
		if err := o.AddObjectProperty(r.id, "", r.dom, r.rng, ontology.ManyToOne); err != nil {
			return nil, err
		}
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// Mapping builds the source schema mapping binding the TPC-H ontology
// to the TPC-H catalog.
func Mapping() (*mapping.Mapping, error) {
	return mappingOver("tpch", func(string) string { return StoreName })
}

// mappingOver binds the TPC-H ontology to the TPC-H relations, each in
// the store that store names.
func mappingOver(name string, store func(relation string) string) (*mapping.Mapping, error) {
	m := mapping.New(name)
	id := func(names ...string) map[string]string {
		out := map[string]string{}
		for _, n := range names {
			out[n] = n
		}
		return out
	}
	cms := []mapping.ConceptMapping{
		{Concept: "Region", Relation: "region", Attrs: id("r_name"), Key: []string{"r_regionkey"}},
		{Concept: "Nation", Relation: "nation", Attrs: id("n_name"), Key: []string{"n_nationkey"}},
		{Concept: "Supplier", Relation: "supplier", Attrs: id("s_name", "s_acctbal"), Key: []string{"s_suppkey"}},
		{Concept: "Part", Relation: "part", Attrs: id("p_name", "p_brand", "p_type", "p_retailprice"), Key: []string{"p_partkey"}},
		{Concept: "Partsupp", Relation: "partsupp", Attrs: id("ps_availqty", "ps_supplycost"), Key: []string{"ps_partkey", "ps_suppkey"}},
		{Concept: "Customer", Relation: "customer", Attrs: id("c_name", "c_acctbal", "c_mktsegment"), Key: []string{"c_custkey"}},
		{Concept: "Orders", Relation: "orders", Attrs: id("o_orderstatus", "o_totalprice", "o_orderdate", "o_orderpriority"), Key: []string{"o_orderkey"}},
		{Concept: "Lineitem", Relation: "lineitem", Attrs: id("l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_shipdate"), Key: []string{"l_orderkey", "l_linenumber"}},
	}
	for _, cm := range cms {
		cm.Store = store(cm.Relation)
		if err := m.MapConcept(cm); err != nil {
			return nil, err
		}
	}
	pms := []mapping.PropertyMapping{
		{Property: "lineitem_orders", DomainCols: []string{"l_orderkey"}, RangeCols: []string{"o_orderkey"}},
		{Property: "lineitem_partsupp", DomainCols: []string{"l_partkey", "l_suppkey"}, RangeCols: []string{"ps_partkey", "ps_suppkey"}},
		{Property: "partsupp_part", DomainCols: []string{"ps_partkey"}, RangeCols: []string{"p_partkey"}},
		{Property: "partsupp_supplier", DomainCols: []string{"ps_suppkey"}, RangeCols: []string{"s_suppkey"}},
		{Property: "supplier_nation", DomainCols: []string{"s_nationkey"}, RangeCols: []string{"n_nationkey"}},
		{Property: "customer_nation", DomainCols: []string{"c_nationkey"}, RangeCols: []string{"n_nationkey"}},
		{Property: "orders_customer", DomainCols: []string{"o_custkey"}, RangeCols: []string{"c_custkey"}},
		{Property: "nation_region", DomainCols: []string{"n_regionkey"}, RangeCols: []string{"r_regionkey"}},
	}
	for _, pm := range pms {
		if err := m.MapProperty(pm); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Generate populates db with a deterministic micro-TPC-H instance of
// the given scale factor. The same (sf, seed) always produces the
// same data.
func Generate(db *storage.DB, sf float64, seed int64) (Sizes, error) {
	sz := SizesFor(sf)
	r := rand.New(rand.NewSource(seed))
	mk := func(name string, cols []storage.Column) (*storage.Table, error) {
		return db.CreateOrReplaceTable(name, cols)
	}

	region, err := mk("region", []storage.Column{{Name: "r_regionkey", Type: "int"}, {Name: "r_name", Type: "string"}})
	if err != nil {
		return sz, err
	}
	for i := 0; i < sz.Region; i++ {
		if err := region.Insert(storage.Row{expr.Int(int64(i)), expr.Str(regionNames[i%len(regionNames)])}); err != nil {
			return sz, err
		}
	}

	nation, err := mk("nation", []storage.Column{
		{Name: "n_nationkey", Type: "int"}, {Name: "n_name", Type: "string"}, {Name: "n_regionkey", Type: "int"},
	})
	if err != nil {
		return sz, err
	}
	for i := 0; i < sz.Nation; i++ {
		row := storage.Row{
			expr.Int(int64(i)),
			expr.Str(nationNames[i%len(nationNames)]),
			expr.Int(int64(nationRegion[i%len(nationRegion)] % sz.Region)),
		}
		if err := nation.Insert(row); err != nil {
			return sz, err
		}
	}

	supplier, err := mk("supplier", []storage.Column{
		{Name: "s_suppkey", Type: "int"}, {Name: "s_name", Type: "string"},
		{Name: "s_nationkey", Type: "int"}, {Name: "s_acctbal", Type: "float"},
	})
	if err != nil {
		return sz, err
	}
	for i := 0; i < sz.Supplier; i++ {
		// Nations are assigned round-robin starting at SPAIN (index
		// 24), so the demo's SPAIN slicer selects data at every scale
		// factor; the stride 7 is coprime with 25 and spreads
		// suppliers over all nations.
		row := storage.Row{
			expr.Int(int64(i)),
			expr.Str(fmt.Sprintf("Supplier#%09d", i)),
			expr.Int(int64((24 + i*7) % sz.Nation)),
			expr.Float(float64(r.Intn(1000000))/100 - 1000),
		}
		if err := supplier.Insert(row); err != nil {
			return sz, err
		}
	}

	part, err := mk("part", []storage.Column{
		{Name: "p_partkey", Type: "int"}, {Name: "p_name", Type: "string"},
		{Name: "p_brand", Type: "string"}, {Name: "p_type", Type: "string"},
		{Name: "p_retailprice", Type: "float"},
	})
	if err != nil {
		return sz, err
	}
	for i := 0; i < sz.Part; i++ {
		row := storage.Row{
			expr.Int(int64(i)),
			expr.Str(fmt.Sprintf("part %06d", i)),
			expr.Str(fmt.Sprintf("Brand#%d%d", r.Intn(5)+1, r.Intn(5)+1)),
			expr.Str(partTypes[r.Intn(len(partTypes))]),
			expr.Float(900 + float64(i%200) + float64(r.Intn(100))/100),
		}
		if err := part.Insert(row); err != nil {
			return sz, err
		}
	}

	partsupp, err := mk("partsupp", []storage.Column{
		{Name: "ps_partkey", Type: "int"}, {Name: "ps_suppkey", Type: "int"},
		{Name: "ps_availqty", Type: "int"}, {Name: "ps_supplycost", Type: "float"},
	})
	if err != nil {
		return sz, err
	}
	perPart := sz.Partsupp / sz.Part
	if perPart < 1 {
		perPart = 1
	}
	psCount := 0
	for p := 0; p < sz.Part && psCount < sz.Partsupp; p++ {
		for k := 0; k < perPart && psCount < sz.Partsupp; k++ {
			row := storage.Row{
				expr.Int(int64(p)),
				expr.Int(int64((p + k*7) % sz.Supplier)),
				expr.Int(int64(r.Intn(9999) + 1)),
				expr.Float(float64(r.Intn(100000)) / 100),
			}
			if err := partsupp.Insert(row); err != nil {
				return sz, err
			}
			psCount++
		}
	}
	sz.Partsupp = psCount

	customer, err := mk("customer", []storage.Column{
		{Name: "c_custkey", Type: "int"}, {Name: "c_name", Type: "string"},
		{Name: "c_nationkey", Type: "int"}, {Name: "c_acctbal", Type: "float"},
		{Name: "c_mktsegment", Type: "string"},
	})
	if err != nil {
		return sz, err
	}
	for i := 0; i < sz.Customer; i++ {
		row := storage.Row{
			expr.Int(int64(i)),
			expr.Str(fmt.Sprintf("Customer#%09d", i)),
			expr.Int(int64(r.Intn(sz.Nation))),
			expr.Float(float64(r.Intn(1000000))/100 - 1000),
			expr.Str(segments[r.Intn(len(segments))]),
		}
		if err := customer.Insert(row); err != nil {
			return sz, err
		}
	}

	orders, err := mk("orders", []storage.Column{
		{Name: "o_orderkey", Type: "int"}, {Name: "o_custkey", Type: "int"},
		{Name: "o_orderstatus", Type: "string"}, {Name: "o_totalprice", Type: "float"},
		{Name: "o_orderdate", Type: "string"}, {Name: "o_orderpriority", Type: "string"},
	})
	if err != nil {
		return sz, err
	}
	for i := 0; i < sz.Orders; i++ {
		year := 1992 + r.Intn(7)
		row := storage.Row{
			expr.Int(int64(i)),
			expr.Int(int64(r.Intn(sz.Customer))),
			expr.Str([]string{"O", "F", "P"}[r.Intn(3)]),
			expr.Float(float64(r.Intn(40000000)) / 100),
			expr.Str(fmt.Sprintf("%04d-%02d-%02d", year, r.Intn(12)+1, r.Intn(28)+1)),
			expr.Str(priorities[r.Intn(len(priorities))]),
		}
		if err := orders.Insert(row); err != nil {
			return sz, err
		}
	}

	lineitem, err := mk("lineitem", []storage.Column{
		{Name: "l_orderkey", Type: "int"}, {Name: "l_partkey", Type: "int"},
		{Name: "l_suppkey", Type: "int"}, {Name: "l_linenumber", Type: "int"},
		{Name: "l_quantity", Type: "float"}, {Name: "l_extendedprice", Type: "float"},
		{Name: "l_discount", Type: "float"}, {Name: "l_tax", Type: "float"},
		{Name: "l_returnflag", Type: "string"}, {Name: "l_shipdate", Type: "string"},
	})
	if err != nil {
		return sz, err
	}
	perOrder := sz.Lineitem / sz.Orders
	if perOrder < 1 {
		perOrder = 1
	}
	liCount := 0
	for o := 0; o < sz.Orders && liCount < sz.Lineitem; o++ {
		for ln := 0; ln < perOrder && liCount < sz.Lineitem; ln++ {
			p := r.Intn(sz.Part)
			// Pick a supplier that actually supplies p (matches the
			// partsupp generation pattern).
			s := (p + r.Intn(perPart)*7) % sz.Supplier
			qty := float64(r.Intn(50) + 1)
			year := 1992 + r.Intn(7)
			row := storage.Row{
				expr.Int(int64(o)),
				expr.Int(int64(p)),
				expr.Int(int64(s)),
				expr.Int(int64(ln + 1)),
				expr.Float(qty),
				expr.Float(qty * (900 + float64(p%200))),
				expr.Float(float64(r.Intn(11)) / 100),
				expr.Float(float64(r.Intn(9)) / 100),
				expr.Str(returnFlags[r.Intn(len(returnFlags))]),
				expr.Str(fmt.Sprintf("%04d-%02d-%02d", year, r.Intn(12)+1, r.Intn(28)+1)),
			}
			if err := lineitem.Insert(row); err != nil {
				return sz, err
			}
			liCount++
		}
	}
	sz.Lineitem = liCount
	return sz, nil
}
