// Package workload defines the benchmark's four workloads: their
// server sizing and the seeded request sequences the driver replays.
// It depends on the standard library only, so the driver (HTTP only)
// and the traced in-process run (bench/layers) share one definition of
// every query shape.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Names of the four workloads, in the order run.sh runs them.
const (
	AdhocScan       = "adhoc_scan"
	DashZipf        = "dash_zipf"
	LifecycleReload = "lifecycle_reload"
	ShardGather     = "shard_gather"
)

// Names lists the workloads in run order.
var Names = []string{AdhocScan, DashZipf, LifecycleReload, ShardGather}

// DataSeed is the micro-TPC-H generator seed every server runs with.
// The benchmark's --seed drives the request sequence only: nothing but
// the generated requests reaches the servers.
const DataSeed = 42

// Spec sizes one workload.
type Spec struct {
	Name string
	// SF is the micro-TPC-H scale factor (fact_table_quantity holds
	// 150·SF rows, fact_table_revenue about 3.2·SF).
	SF float64
	// Flags are the serving flags passed to every quarryd of the
	// workload beyond -addr/-sf/-seed/-data-dir.
	Flags []string
	// Clients is the closed-loop client count at nproc >= 2; the driver
	// uses min(nproc, Clients).
	Clients int
	// Shards > 0 runs that many quarryd shards behind a quarryrouter.
	Shards int
}

// Quick is the scale factor of the --quick smoke mode.
const Quick = 5

// Specs returns the sizing of every workload. Scale factors are the
// largest at which three set-ups plus the measured window of one run
// fit the driver's per-run time budget on a 2-core box (see README).
func Specs() map[string]Spec {
	return map[string]Spec{
		AdhocScan:       {Name: AdhocScan, SF: 200, Flags: []string{"-olap-cache", "-1", "-matagg=false"}, Clients: 2},
		DashZipf:        {Name: DashZipf, SF: 100, Clients: 2},
		LifecycleReload: {Name: LifecycleReload, SF: 100, Flags: []string{"-olap-cache", "-1", "-matagg=false"}, Clients: 1},
		// One client: the router fans every request out to both shards,
		// which already keeps two cores busy.
		ShardGather: {Name: ShardGather, SF: 100, Flags: []string{"-olap-cache", "-1", "-matagg=false"}, Clients: 1, Shards: 2},
	}
}

// Measure is one aggregated measure of a cube query.
type Measure struct {
	Out  string `json:"out"`
	Func string `json:"func"`
	Col  string `json:"col"`
}

// Dice is the diamond-dice clause of a cube query.
type Dice struct {
	Func       string             `json:"func"`
	Thresholds map[string]float64 `json:"thresholds"`
}

// Request is the JSON body of POST /api/olap (the pinned wire shape;
// see README "pinned surface").
type Request struct {
	Fact     string            `json:"fact"`
	GroupBy  []string          `json:"group_by,omitempty"`
	Measures []Measure         `json:"measures"`
	Filter   string            `json:"filter,omitempty"`
	RollUp   map[string]string `json:"roll_up,omitempty"`
	Dice     *Dice             `json:"dice,omitempty"`
	Oracle   bool              `json:"oracle,omitempty"`
}

// Query is one request of a sequence: the shape it is reported under
// and the body it sends.
type Query struct {
	Shape string
	Req   Request
}

// Body renders the POST body; oracle selects the star-flow reference
// executor for the same query.
func (q Query) Body(oracle bool) []byte {
	r := q.Req
	r.Oracle = oracle
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // Request holds only marshalable field types
	}
	return b
}

// Key identifies a distinct query (its fast-path body).
func (q Query) Key() string { return string(q.Body(false)) }

// The five ad-hoc shapes.
const (
	ScanGroup  = "scan_group"
	ScanFilter = "scan_filter"
	StarWide   = "star_wide"
	StarFilter = "star_filter"
	DiceShape  = "dice"
)

// Shapes lists the ad-hoc shapes in reporting order.
var Shapes = []string{ScanGroup, ScanFilter, StarWide, StarFilter, DiceShape}

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	partTypes  = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}

	quantityMeasures = []Measure{{Out: "total", Func: "SUM", Col: "quantity"}, {Out: "n", Func: "COUNT"}}
	revenueMeasures  = []Measure{{Out: "total", Func: "SUM", Col: "revenue"}, {Out: "n", Func: "COUNT"}}
	countMeasure     = []Measure{{Out: "n", Func: "COUNT"}}
)

const (
	factQuantity = "fact_table_quantity"
	factRevenue  = "fact_table_revenue"
)

func brands() []string {
	out := make([]string, 0, 25)
	for a := 1; a <= 5; a++ {
		for b := 1; b <= 5; b++ {
			out = append(out, fmt.Sprintf("Brand#%d%d", a, b))
		}
	}
	return out
}

// ScanGroupQuery scans and joins the whole quantity fact.
func ScanGroupQuery() Query {
	return Query{ScanGroup, Request{Fact: factQuantity, GroupBy: []string{"c_mktsegment", "o_orderpriority"}, Measures: quantityMeasures}}
}

// ScanFilterQuery is ScanGroupQuery behind an expr-evaluated
// predicate over joined rows.
func ScanFilterQuery(segment string, k int) Query {
	q := ScanGroupQuery()
	q.Shape = ScanFilter
	q.Req.Filter = fmt.Sprintf("c_mktsegment = '%s' AND quantity > %d", segment, k)
	return q
}

// StarWideQuery builds two dimensions and renders a wide result.
func StarWideQuery() Query {
	return Query{StarWide, Request{Fact: factRevenue, GroupBy: []string{"s_name", "p_brand"}, Measures: revenueMeasures}}
}

// StarFilterQuery drills into one brand.
func StarFilterQuery(brand string) Query {
	return Query{StarFilter, Request{Fact: factRevenue, GroupBy: []string{"p_name"}, Measures: revenueMeasures,
		Filter: fmt.Sprintf("p_brand = '%s'", brand)}}
}

// DiceQuery is a COUNT-carat diamond over brand × supplier. (The issue
// names brand × nation, but the revenue fact is sliced to one nation,
// which would make that diamond degenerate.)
func DiceQuery(brandCarat, supplierCarat int) Query {
	return Query{DiceShape, Request{Fact: factRevenue, GroupBy: []string{"p_brand", "s_name"}, Measures: countMeasure,
		Dice: &Dice{Func: "COUNT", Thresholds: map[string]float64{"p_brand": float64(brandCarat), "s_name": float64(supplierCarat)}}}}
}

// adhocRound is one round of the ad-hoc mix: the shapes in turn
// (round-robin), five requests of each, so 25 requests, or 20 without
// the dice. The multiset of literals is fixed so that every round does
// the same work whatever the seed: scan_filter asks every segment once
// and every threshold of filterThresholds once, star_filter five
// distinct brands, the dice every carat of diceCarats once per
// dimension. The seed pairs segments with thresholds, picks the brands
// and pairs the carats.
func adhocRound(rng *rand.Rand, withDice bool) []Query {
	ks := rng.Perm(len(filterThresholds))
	bs := brands()
	rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	var brandCarats, supplierCarats []int
	if withDice {
		brandCarats, supplierCarats = rng.Perm(len(diceCarats)), rng.Perm(len(diceCarats))
	}
	var out []Query
	for i, seg := range segments {
		out = append(out, ScanGroupQuery(), ScanFilterQuery(seg, filterThresholds[ks[i]]), StarWideQuery(), StarFilterQuery(bs[i]))
		if withDice {
			out = append(out, DiceQuery(diceCarats[brandCarats[i]], diceCarats[supplierCarats[i]]))
		}
	}
	return out
}

// Literal multisets of the ad-hoc round, one per segment.
var (
	filterThresholds = []int{10, 15, 20, 25, 30} // quantity > k; quantities run 1..50
	diceCarats       = []int{2, 3, 3, 4, 5}
)

// dashQueries is the dashboard's distinct-query population in rank
// order (rank 0 is the hottest): four golden roll-ups, then
// equality-filter families over p_brand / p_type on the revenue fact
// and c_mktsegment / o_orderpriority on the quantity fact, then a
// `quantity > k` tail. About 460 queries, against a result cache of
// 256 entries.
func dashQueries() []Query {
	rev := func(shape string, groupBy []string, rollUp map[string]string, filter string) Query {
		return Query{shape, Request{Fact: factRevenue, GroupBy: groupBy, RollUp: rollUp, Measures: revenueMeasures, Filter: filter}}
	}
	qty := func(shape string, groupBy []string, filter string) Query {
		return Query{shape, Request{Fact: factQuantity, GroupBy: groupBy, Measures: quantityMeasures, Filter: filter}}
	}
	out := []Query{
		rev("golden", nil, map[string]string{"Supplier": "Nation"}, ""),
		rev("golden", []string{"s_name"}, nil, ""),
		rev("golden", nil, map[string]string{"Supplier": "Region"}, ""),
		rev("golden", []string{"p_brand"}, nil, ""),
	}
	var families [][]Query
	for _, g := range [][]string{{"s_name"}, {"p_type"}, {"p_name"}, {"s_name", "p_type"}} {
		var f []Query
		for _, b := range brands() {
			f = append(f, rev("brand_eq", g, nil, fmt.Sprintf("p_brand = '%s'", b)))
		}
		families = append(families, f)
	}
	for _, g := range [][]string{{"s_name"}, {"p_brand"}, {"p_name"}} {
		var f []Query
		for _, t := range partTypes {
			f = append(f, rev("type_eq", g, nil, fmt.Sprintf("p_type = '%s'", t)))
		}
		families = append(families, f)
	}
	{
		var f []Query
		for _, b := range brands() {
			for _, t := range partTypes {
				f = append(f, rev("brand_type_eq", []string{"s_name"}, nil, fmt.Sprintf("p_brand = '%s' AND p_type = '%s'", b, t)))
			}
		}
		families = append(families, f)
	}
	{
		var f []Query
		for _, s := range segments {
			f = append(f, qty("segment_eq", []string{"o_orderpriority"}, fmt.Sprintf("c_mktsegment = '%s'", s)))
		}
		for _, p := range priorities {
			f = append(f, qty("priority_eq", []string{"c_mktsegment"}, fmt.Sprintf("o_orderpriority = '%s'", p)))
		}
		families = append(families, f)
	}
	// Interleave the families so every one has members near the head
	// and in the tail.
	for i := 0; ; i++ {
		took := false
		for _, f := range families {
			if i < len(f) {
				out = append(out, f[i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	for k := 1; len(out) < dashPopulation; k++ {
		out = append(out, qty("quantity_gt", []string{"c_mktsegment", "o_orderpriority"}, fmt.Sprintf("quantity > %d", k)))
	}
	return out
}

const (
	dashPopulation = 460
	dashRoundOps   = 1500
	zipfS          = 1.1
)

// dashRound is one round of the dashboard mix: dashRoundOps requests
// over dashQueries with Zipf(s = 1.1) frequencies. The multiset is
// stratified, not sampled — rank r appears round(N·p_r) times, and the
// slots rounding leaves over go to seed-chosen tail ranks — so every
// seed sends the same number of distinct queries and the same head
// frequencies; the seed picks the tail members and the order.
func dashRound(rng *rand.Rand) []Query {
	pop := dashQueries()
	w := make([]float64, len(pop))
	var sum float64
	for r := range pop {
		w[r] = 1 / math.Pow(float64(r+1), zipfS)
		sum += w[r]
	}
	var out []Query
	var rest []int // ranks whose expected count rounds to zero
	for r, q := range pop {
		n := int(math.Round(dashRoundOps * w[r] / sum))
		if n == 0 {
			rest = append(rest, r)
		}
		for i := 0; i < n; i++ {
			out = append(out, q)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for i := 0; len(out) < dashRoundOps && i < len(rest); i++ {
		out = append(out, pop[rest[i]])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Round returns one round of a workload's request sequence for a
// seed. The driver replays the round until the measured window ends,
// so a run is a whole number of identical rounds: throughput is
// compared round against round, never across differently mixed time
// slices. lifecycle_reload has no query mix; see LifecycleOrder.
func Round(name string, seed int64) ([]Query, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case AdhocScan:
		return adhocRound(rng, true), nil
	case ShardGather:
		// Same shapes minus the dice, which a fleet refuses (422: a
		// diamond is not distributive over fact partitions).
		return adhocRound(rng, false), nil
	case DashZipf:
		return dashRound(rng), nil
	case LifecycleReload:
		return []Query{ScanGroupQuery()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Names)
}

// LifecycleOrder is the seeded order in which lifecycle_reload
// removes and re-posts the n requirements each iteration.
func LifecycleOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// Distinct returns the distinct queries of a round, ordered by key,
// for answer checking outside the timed window.
func Distinct(round []Query) []Query {
	seen := map[string]Query{}
	for _, q := range round {
		seen[q.Key()] = q
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Query, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}
