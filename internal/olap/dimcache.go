package olap

import (
	"strconv"
	"strings"
	"sync"
)

// dimCache caches dimension build sides across queries (the ROADMAP's
// "per-dimension build-side caching" item). The fast path rebuilds one
// dimSide per joined dimension on every query; under concurrent
// serving traffic the same few dimensions are rebuilt over and over.
// The cache keys each built dimSide by the DB version, the dimension's
// snapshotted row count and the exact join shape (reference column,
// build projection, pushed-down predicates) — every input that
// determines the built side. A republish bumps the version
// and implicitly drops every entry (same invalidation lifecycle as the
// materialized aggregates, which is why MatAgg owns the cache); a
// direct append outside a run changes the snapshotted row count and
// misses instead. Built sides are immutable once published, so any
// number of queries probe one concurrently.
type dimCache struct {
	mu sync.Mutex
	// version is the newest version observed; entries older than it
	// are pruned when it advances, but in-flight queries over earlier
	// snapshots may still read (and briefly re-add) their own
	// version's entries without evicting the new version's — reload
	// windows must not thrash the freshly built build sides.
	version uint64
	entries map[string]dimCacheEntry

	hits, misses int64
}

type dimCacheEntry struct {
	side    *dimSide
	version uint64
}

// dimCacheCap bounds retained build sides; deployed designs have few
// dimensions, so blowing past it signals key churn and drops the lot.
const dimCacheCap = 128

func newDimCache() *dimCache {
	return &dimCache{entries: map[string]dimCacheEntry{}}
}

// dimKey identifies one build side.
func dimKey(sj *starJoin, nrows int64) string {
	var b strings.Builder
	b.WriteString(sj.def.Name)
	b.WriteByte(0)
	b.WriteString(strconv.FormatInt(nrows, 10))
	b.WriteByte(0)
	b.WriteString(sj.refCol)
	b.WriteByte(0)
	b.WriteString(strings.Join(sj.buildCols, ","))
	// Pushed-down prune predicates change which dimension rows enter
	// the build (harmlessly for results, but two queries with
	// different pushdowns must not share a build side keyed alike).
	b.WriteByte(0)
	b.WriteString(sj.predKey)
	return b.String()
}

// advanceLocked prunes entries older than a newly observed version —
// "dropped on republish", without letting straggler queries over
// pre-republish snapshots evict the new version's entries.
func (c *dimCache) advanceLocked(version uint64) {
	if version <= c.version {
		return
	}
	c.version = version
	for k, en := range c.entries {
		if en.version < version {
			delete(c.entries, k)
		}
	}
}

// get returns the cached build side for the key at the given version.
func (c *dimCache) get(version uint64, key string) (*dimSide, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(version)
	en, ok := c.entries[versionedKey(version, key)]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return en.side, ok
}

// versionedKey namespaces a join-shape key by version so straggler
// queries over a pre-republish snapshot never overwrite the current
// version's entry for the same shape.
func versionedKey(version uint64, key string) string {
	return strconv.FormatUint(version, 10) + "\x00" + key
}

// put publishes a fully built side for the key at the version.
func (c *dimCache) put(version uint64, key string, side *dimSide) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(version)
	if len(c.entries) >= dimCacheCap {
		c.entries = map[string]dimCacheEntry{}
	}
	c.entries[versionedKey(version, key)] = dimCacheEntry{side: side, version: version}
}

// purge drops everything (design changes).
func (c *dimCache) purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = map[string]dimCacheEntry{}
	c.mu.Unlock()
}

// stats reports cumulative hit/miss counts.
func (c *dimCache) stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
