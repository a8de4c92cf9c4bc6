package olap

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"quarry/internal/engine"
)

// dimCache caches dimension build sides across queries. Each Engine
// owns one, so every fast-path query — the partial answer and the
// aggregate refresh included — builds a dimension's join index (and,
// on first use, its group codes: engine.JoinIndex.GroupCodes) once per
// warehouse version instead of once per query. The cache keys each
// built side by the DB version, the dimension's snapshotted row count
// and the exact join shape (reference column, build projection,
// pushed-down predicates) — every input that determines the built
// side. A republish bumps the version and implicitly drops every
// entry; a direct append outside a run changes the snapshotted row
// count and misses instead; a design change builds a new Engine, which
// starts cold. Built sides are immutable once published, so any number
// of queries probe one concurrently.
type dimCache struct {
	mu sync.Mutex
	// version is the newest version observed; entries older than it
	// are pruned when it advances, but in-flight queries over earlier
	// snapshots may still read (and briefly re-add) their own
	// version's entries without evicting the new version's — reload
	// windows must not thrash the freshly built build sides.
	version uint64
	entries map[string]dimCacheEntry
	counts  *DimCacheCounts
}

// DimCacheCounts counts dimension-cache lookups. A platform passes one
// to every Engine it builds, so the counts run for the life of the
// process across engine rebuilds.
type DimCacheCounts struct{ hits, misses atomic.Int64 }

// Load returns the hits and misses counted so far.
func (c *DimCacheCounts) Load() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

type dimCacheEntry struct {
	side    *engine.JoinIndex
	version uint64
}

// dimCacheCap bounds retained build sides; deployed designs have few
// dimensions, so blowing past it signals key churn and drops the lot.
const dimCacheCap = 128

func newDimCache(counts *DimCacheCounts) *dimCache {
	if counts == nil {
		counts = &DimCacheCounts{}
	}
	return &dimCache{entries: map[string]dimCacheEntry{}, counts: counts}
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
func (c *dimCache) get(version uint64, key string) (*engine.JoinIndex, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(version)
	en, ok := c.entries[versionedKey(version, key)]
	if ok {
		c.counts.hits.Add(1)
	} else {
		c.counts.misses.Add(1)
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
func (c *dimCache) put(version uint64, key string, side *engine.JoinIndex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(version)
	if len(c.entries) >= dimCacheCap {
		c.entries = map[string]dimCacheEntry{}
	}
	c.entries[versionedKey(version, key)] = dimCacheEntry{side: side, version: version}
}
