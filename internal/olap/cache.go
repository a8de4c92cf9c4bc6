package olap

import (
	"container/list"
	"sync"
)

// ResultCache is a concurrency-safe LRU cache of encoded answers,
// used by the serving layer. An entry is keyed by the request's own
// bytes and holds the answer's body together with the warehouse
// version (storage.DB.Version() or Snapshot.Version()) it was computed
// at; a lookup at any other version misses, so a reload of the
// warehouse naturally misses, and callers additionally Purge on load
// to stop stale versions from occupying space. Identical bytes always
// decode to the same query, so a hit answers exactly what executing
// the request would; a request spelled differently is its own entry.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses int64
}

type cacheEntry struct {
	req     string
	version uint64
	body    []byte
}

// NewResultCache builds a cache holding up to capacity answers;
// capacity <= 0 disables caching: the cache is nil, and a nil cache
// is inert (Get misses uncounted, Put drops, Len and Stats are 0).
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		return nil
	}
	return &ResultCache{
		cap:     capacity,
		entries: map[string]*list.Element{},
		order:   list.New(),
	}
}

// Get returns the body cached for the request bytes req at warehouse
// version, if any. The caller must not mutate the returned bytes.
func (c *ResultCache) Get(version uint64, req []byte) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(req)]
	if !ok || el.Value.(*cacheEntry).version != version {
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).body, true
}

// Put stores the body answering the request bytes req at warehouse
// version, evicting the least recently used entry when full. An entry
// at a newer version is kept: lookups ask at the current version, so
// an answer that finished late on an older snapshot can only miss.
func (c *ResultCache) Put(version uint64, req []byte, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(req)]; ok {
		if e := el.Value.(*cacheEntry); e.version <= version {
			e.version, e.body = version, body
		}
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).req)
	}
	k := string(req)
	c.entries[k] = c.order.PushFront(&cacheEntry{req: k, version: version, body: body})
}

// Purge drops every entry (called when the warehouse is reloaded).
func (c *ResultCache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.order.Init()
}

// Len reports the number of cached answers.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports cumulative hit/miss counts.
func (c *ResultCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
