package olap_test

import (
	"math/rand"
	"sync"
	"testing"

	"quarry/internal/olap"
)

// TestConcurrentQueriesIndependent is the regression test for the
// pre-PR-2 hazard: both executors used to materialise their answer as
// a table in the shared warehouse DB, so two simultaneous queries on
// the same fact clobbered each other's results. Now many simultaneous
// queries — on both paths — must return correct, independent answers
// and leave the warehouse untouched.
func TestConcurrentQueriesIndependent(t *testing.T) {
	p, db := deployedPlatform(t)
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	qa := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"n_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}},
	}
	qb := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"p_brand"},
		Measures: []olap.MeasureSpec{{Out: "avg_rev", Func: "AVG", Col: "revenue"}, {Out: "n", Func: "COUNT", Col: ""}},
	}
	wantA, err := e.Query(qa)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := e.Query(qb)
	if err != nil {
		t.Fatal(err)
	}
	tablesBefore := db.TableNames()
	versionBefore := db.Version()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q, want := qa, wantA
				if (w+i)%2 == 1 {
					q, want = qb, wantB
				}
				var got *olap.Result
				var err error
				if i%2 == 0 {
					got, err = e.Query(q)
				} else {
					got, err = e.QueryStarFlow(q)
				}
				if err != nil {
					errs <- err
					return
				}
				g, wnt := encodeResult(got), encodeResult(want)
				if len(g) != len(wnt) {
					errs <- errMismatch(q)
					return
				}
				for j := range g {
					if g[j] != wnt[j] {
						errs <- errMismatch(q)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The warehouse is untouched: no scratch tables, no version bump.
	tablesAfter := db.TableNames()
	if len(tablesAfter) != len(tablesBefore) {
		t.Fatalf("queries changed the warehouse: %v -> %v", tablesBefore, tablesAfter)
	}
	for i := range tablesAfter {
		if tablesAfter[i] != tablesBefore[i] {
			t.Fatalf("queries changed the warehouse: %v -> %v", tablesBefore, tablesAfter)
		}
	}
	if got := db.Version(); got != versionBefore {
		t.Fatalf("queries bumped the warehouse version %d -> %d", versionBefore, got)
	}
}

type queryMismatch struct{ q olap.CubeQuery }

func errMismatch(q olap.CubeQuery) error { return queryMismatch{q} }
func (e queryMismatch) Error() string {
	return "concurrent query returned a result differing from its serial answer: " + queryString(e.q)
}

// TestQueriesSeeStableSnapshotDuringReload runs fast-path queries
// while the platform's ETL reloads the warehouse in a loop. Data
// generation is deterministic, so every response must equal the
// canonical answer: observing a half-loaded fact or dimension table
// (a torn snapshot) would change the aggregate.
func TestQueriesSeeStableSnapshotDuringReload(t *testing.T) {
	p, _ := deployedPlatform(t)
	e, err := p.OLAP()
	if err != nil {
		t.Fatal(err)
	}
	q := olap.CubeQuery{
		Fact:     "fact_table_revenue",
		GroupBy:  []string{"n_name"},
		Measures: []olap.MeasureSpec{{Out: "total", Func: "SUM", Col: "revenue"}, {Out: "n", Func: "COUNT", Col: ""}},
	}
	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := encodeResult(want)

	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() {
		defer close(loadErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := p.Run(); err != nil {
				loadErr <- err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err, ok := <-loadErr; ok && err != nil {
			t.Fatal(err)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := e.Query(q)
				if err != nil {
					errs <- err
					return
				}
				g := encodeResult(got)
				if len(g) != len(wantEnc) {
					errs <- errMismatch(q)
					return
				}
				for j := range g {
					if g[j] != wantEnc[j] {
						errs <- errMismatch(q)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentFirstTouchOfPageVectors starts queries on a disk
// warehouse nothing has read yet, so several goroutines decode the same
// pages' vectors at once — different column subsets of the same pages,
// each vector made lazily and published to the one buffer-pool entry —
// while another goroutine scans the same pages as rows. Under the race
// detector this is the proof that decoded forms are published safely
// and never written after; the answers are checked against the oracle.
func TestConcurrentFirstTouchOfPageVectors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := openDisk(t)
	e := handEngine(t, db, handStar(r, 3000, "dense"))
	count := olap.MeasureSpec{Out: "n", Func: "COUNT"}
	queries := []olap.CubeQuery{
		{Fact: "sales", GroupBy: []string{"a_name"}, Measures: []olap.MeasureSpec{count}},
		{Fact: "sales", GroupBy: []string{"a_rank", "tag"}, Measures: []olap.MeasureSpec{{Out: "s", Func: "SUM", Col: "amt"}}},
		{Fact: "sales", GroupBy: []string{"b_kind"}, Measures: []olap.MeasureSpec{{Out: "q", Func: "SUM", Col: "qty"}}, Filter: "a_name = 'a2'"},
		{Fact: "sales", GroupBy: []string{"c_label", "a_name"}, Measures: []olap.MeasureSpec{count, {Out: "hi", Func: "MAX", Col: "b_w"}}},
		{Fact: "sales", GroupBy: []string{"qty"}, Measures: []olap.MeasureSpec{{Out: "lo", Func: "MIN", Col: "a_name"}}},
	}
	start := make(chan struct{})
	results := make([]*olap.Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = e.Query(q)
		}()
	}
	var scanned int
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for _, table := range []string{"sales", "dim_a", "dim_b"} {
			snap, err := db.Snapshot(table)
			if err != nil {
				t.Error(err)
				return
			}
			view, _ := snap.Table(table)
			cur := view.Cursor(nil)
			for batch := cur.Next(256); batch != nil; batch = cur.Next(256) {
				scanned += len(batch)
			}
		}
	}()
	close(start)
	wg.Wait()
	if scanned != 3000+40+30 {
		t.Fatalf("the row reader saw %d rows", scanned)
	}
	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("%s: %v", queryString(q), errs[i])
		}
		oracle, err := e.QueryStarFlow(q)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, queryString(q), results[i], oracle)
	}
}
