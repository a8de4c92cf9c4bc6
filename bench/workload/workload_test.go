package workload

import (
	"reflect"
	"testing"
)

func keys(qs []Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Shape + " " + q.Key()
	}
	return out
}

func TestRoundIsDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{AdhocScan, DashZipf, ShardGather} {
		a, err := Round(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Round(name, 7)
		if !reflect.DeepEqual(keys(a), keys(b)) {
			t.Errorf("%s: same seed gave different rounds", name)
		}
		c, _ := Round(name, 8)
		if reflect.DeepEqual(keys(a), keys(c)) {
			t.Errorf("%s: different seeds gave the same round", name)
		}
		if len(a) != len(c) {
			t.Errorf("%s: round length depends on the seed: %d vs %d", name, len(a), len(c))
		}
	}
	if _, err := Round("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if reflect.DeepEqual(LifecycleOrder(1, 4), LifecycleOrder(2, 4)) && reflect.DeepEqual(LifecycleOrder(1, 4), LifecycleOrder(3, 4)) {
		t.Error("lifecycle order ignores the seed")
	}
}

// The work of a round must not depend on the seed: same count of every
// shape, and for the dashboard the same number of distinct queries.
func TestRoundWorkIsSeedIndependent(t *testing.T) {
	shapeCounts := func(qs []Query) map[string]int {
		m := map[string]int{}
		for _, q := range qs {
			m[q.Shape]++
		}
		return m
	}
	for _, name := range []string{AdhocScan, DashZipf, ShardGather} {
		a, _ := Round(name, 1)
		b, _ := Round(name, 2)
		if name != DashZipf && !reflect.DeepEqual(shapeCounts(a), shapeCounts(b)) {
			t.Errorf("%s: shape mix depends on the seed: %v vs %v", name, shapeCounts(a), shapeCounts(b))
		}
		if name == DashZipf && len(Distinct(a)) != len(Distinct(b)) {
			t.Errorf("%s: distinct queries depend on the seed: %d vs %d", name, len(Distinct(a)), len(Distinct(b)))
		}
	}
}

func TestAdhocMix(t *testing.T) {
	r, _ := Round(AdhocScan, 3)
	got := map[string]int{}
	for _, q := range r {
		got[q.Shape]++
	}
	want := map[string]int{ScanFilter: 5, ScanGroup: 5, StarWide: 5, StarFilter: 5, DiceShape: 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adhoc mix = %v, want %v", got, want)
	}
	for i, q := range r {
		if q.Shape != Shapes[i%len(Shapes)] {
			t.Fatalf("request %d is a %s; the shapes must take turns (%v)", i, q.Shape, Shapes)
		}
	}
}

// shard_gather asks adhoc_scan's queries minus the dice, with the same
// literals for the same seed.
func TestShardGatherSharesAdhocLiterals(t *testing.T) {
	adhoc, _ := Round(AdhocScan, 11)
	gather, _ := Round(ShardGather, 11)
	in := map[string]bool{}
	for _, q := range adhoc {
		in[q.Key()] = true
	}
	for _, q := range gather {
		if q.Shape == DiceShape {
			t.Fatal("shard_gather holds a dice")
		}
		if !in[q.Key()] {
			t.Errorf("shard_gather query not in adhoc_scan's round: %s", q.Key())
		}
	}
}

func TestDashWorkingSetExceedsResultCache(t *testing.T) {
	if n := len(dashQueries()); n != dashPopulation {
		t.Fatalf("population = %d, want %d", n, dashPopulation)
	}
	if n := len(Distinct(dashQueries())); n != dashPopulation {
		t.Fatalf("population holds duplicates: %d distinct of %d", n, dashPopulation)
	}
	r, _ := Round(DashZipf, 5)
	if len(r) != dashRoundOps {
		t.Fatalf("round = %d ops, want %d", len(r), dashRoundOps)
	}
	const resultCache = 256 // quarryd's default -olap-cache
	if n := len(Distinct(r)); n <= resultCache {
		t.Errorf("round touches %d distinct queries; must exceed the result cache (%d)", n, resultCache)
	}
}

func TestBodyOracleFlag(t *testing.T) {
	q := ScanGroupQuery()
	if string(q.Body(false)) == string(q.Body(true)) {
		t.Error("oracle flag does not change the body")
	}
	if q.Key() != string(q.Body(false)) {
		t.Error("key is not the fast-path body")
	}
}
