package olap_test

import (
	"fmt"
	"testing"

	"quarry/internal/olap"
)

func TestResultCacheLRUEviction(t *testing.T) {
	c := olap.NewResultCache(2)
	body := func(n int) []byte { return []byte(fmt.Sprint(n)) }
	c.Put(1, []byte("a"), body(1))
	c.Put(1, []byte("b"), body(2))
	if _, ok := c.Get(1, []byte("a")); !ok { // refresh a → b is now LRU
		t.Fatal("a missing")
	}
	c.Put(1, []byte("c"), body(3)) // evicts b
	if _, ok := c.Get(1, []byte("b")); ok {
		t.Fatal("b survived eviction")
	}
	if got, ok := c.Get(1, []byte("a")); !ok || string(got) != "1" {
		t.Fatalf("a = %q, %v after refresh", got, ok)
	}
	if _, ok := c.Get(1, []byte("c")); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("len after purge = %d", c.Len())
	}
	if _, ok := c.Get(1, []byte("a")); ok {
		t.Fatal("a survived purge")
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
}

// TestResultCacheVersions: an answer is found only at the version it
// was computed at, and an answer of an older version never replaces a
// newer one.
func TestResultCacheVersions(t *testing.T) {
	c := olap.NewResultCache(4)
	req := []byte(`{"fact":"f"}`)
	c.Put(2, req, []byte("v2"))
	if _, ok := c.Get(1, req); ok {
		t.Fatal("a version-2 answer was found at version 1")
	}
	if _, ok := c.Get(3, req); ok {
		t.Fatal("a version-2 answer was found at version 3")
	}
	c.Put(1, req, []byte("v1")) // finished late, on an older snapshot
	if got, ok := c.Get(2, req); !ok || string(got) != "v2" {
		t.Fatalf("at version 2: %q, %v; want the version-2 answer", got, ok)
	}
	c.Put(3, req, []byte("v3"))
	if got, ok := c.Get(3, req); !ok || string(got) != "v3" {
		t.Fatalf("at version 3: %q, %v; want the version-3 answer", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want one entry per request", c.Len())
	}
}

func TestResultCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := olap.NewResultCache(capacity)
		if c != nil {
			t.Fatalf("capacity %d built a cache", capacity)
		}
		// A nil cache is inert, not a crash.
		c.Put(1, []byte("k"), []byte("v"))
		c.Purge()
		if _, ok := c.Get(1, []byte("k")); ok {
			t.Fatalf("capacity %d cached an answer", capacity)
		}
		if hits, misses := c.Stats(); c.Len() != 0 || hits != 0 || misses != 0 {
			t.Fatalf("capacity %d: len %d, %d hits, %d misses", capacity, c.Len(), hits, misses)
		}
	}
}
