package storage

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// checkCharges holds the pool's accounts to what it holds: every
// resident entry is charged the memory of its vectors, and the pool's
// total is the sum over its entries.
func checkCharges(t *testing.T, pool *pageCache) {
	t.Helper()
	sum := 0
	for el := pool.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*pageEntry)
		held := 0
		for _, v := range ent.vecs {
			if v != nil {
				held += v.memSize()
			}
		}
		if ent.size != held {
			t.Fatalf("page %d is charged %d bytes but holds vectors of %d", ent.key.page, ent.size, held)
		}
		sum += ent.size
	}
	if pool.used != sum {
		t.Fatalf("the pool counts %d bytes used, its entries %d", pool.used, sum)
	}
}

// setPoolBudget sets the buffer-pool budget of the stores the test
// opens from here on.
func setPoolBudget(t *testing.T, bytes int) {
	old := pageCacheBytes
	pageCacheBytes = bytes
	t.Cleanup(func() { pageCacheBytes = old })
}

// TestPoolChargesWhatItHolds: whichever reader decodes a page — Next
// for rows, NextVectors for some columns — each pool entry is charged
// what it holds, and a row walk through a pool of a two-page budget
// never leaves more than the budget charged.
func TestPoolChargesWhatItHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cols, rows := vectorTestRows(rng, 12000, 300)
	db := diskTableWithTail(t, cols, rows, len(rows))
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("t")
	pool := db.store.cache
	for cur := view.Cursor(nil); cur.Next(1<<20) != nil; {
	}
	if len(pool.m) < 2 {
		t.Fatalf("setup: a row walk left %d pool entries", len(pool.m))
	}
	checkCharges(t, pool)
	vecs := make([]*Vector, 2)
	for cur := view.Cursor(nil); cur.NextVectors([]int{0, 3}, vecs) > 0; {
	}
	checkCharges(t, pool)

	setPoolBudget(t, 2*pageSize)
	small := diskTableWithTail(t, cols, rows, len(rows))
	snap, err = small.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	view, _ = snap.Table("t")
	pool = small.store.cache
	walked := 0
	for cur := view.Cursor(nil); ; {
		b := cur.Next(1 << 20)
		if b == nil {
			break
		}
		walked += len(b)
		if pool.used > pool.cap {
			t.Fatalf("after %d rows the pool is charged %d bytes, over its budget of %d", walked, pool.used, pool.cap)
		}
	}
	if walked != len(rows) {
		t.Fatalf("the walk read %d rows, want %d", walked, len(rows))
	}
	if pages := len(view.pg.segs[0].pages); len(pool.m) >= pages {
		t.Fatalf("setup: all %d pages fit the pool, nothing was evicted", pages)
	}
	checkCharges(t, pool)
}

// TestNextRowsOutliveTheirPage: the rows Next hands out are the
// caller's to keep. They stay valid and unchanged after later Next
// calls and after their page has left the pool.
func TestNextRowsOutliveTheirPage(t *testing.T) {
	setPoolBudget(t, 2*pageSize)
	rng := rand.New(rand.NewSource(30))
	cols, rows := vectorTestRows(rng, 12000, 300)
	db := diskTableWithTail(t, cols, rows, 11500)
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := snap.Table("t")
	var kept, copies [][]Row
	cur := view.Cursor(nil)
	for b := cur.Next(128); b != nil; b = cur.Next(128) {
		kept = append(kept, b)
		cp := make([]Row, len(b))
		for i, r := range b {
			cp[i] = slices.Clone(r)
		}
		copies = append(copies, cp)
	}
	firstPage := pageKey{seg: view.pg.segs[0], page: 0}
	if _, resident := db.store.cache.m[firstPage]; resident {
		t.Fatal("setup: the first page is still in the pool")
	}
	// Another walk decodes every page again into the same small pool.
	for cur := view.Cursor(nil); cur.Next(1<<20) != nil; {
	}
	var all []Row
	for i, b := range kept {
		if !reflect.DeepEqual(b, copies[i]) {
			t.Fatalf("batch %d changed after later reads", i)
		}
		all = append(all, b...)
	}
	if !reflect.DeepEqual(all, rows) {
		t.Fatal("the kept batches are not the rows written")
	}
}
