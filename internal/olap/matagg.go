package olap

// Materialized aggregates: the serving layer's answer to the
// ROADMAP's "materialized aggregate selection" item, after the
// classic view-materialization lattice literature (Harinarayan,
// Rajaraman, Ullman: "Implementing Data Cubes Efficiently").
//
// A MatAgg store watches the query log the fast path already sees:
// every planned cube query is recorded as a (fact, group-by set,
// measure set) pattern — the group-by set resolved through the xMD
// roll-up hierarchies and widened by the filter's identifiers, so a
// pattern names exactly the granularity that could answer the query.
// From each observed pattern the recorder also derives its coarser
// lattice neighbours by walking the roll-up hierarchies (replacing a
// level's key descriptor with its parent level's key), anticipating
// the roll-up navigation OLAP sessions actually perform.
//
// Refresh materializes the top-K hottest patterns: each is run through
// the same build/probe body as a shard's partial answer (partialOn)
// over its own storage snapshot, and the entry keeps what that body
// returns — the aggregation kernel's pre-finalisation group states
// (engine.AggPartial) — plus the rows engine.FinalizePartials makes of
// them, once, at build. Nothing is written to any database. An entry is
// keyed by its snapshot's DB version; a republish (every /api/run bumps
// the version exactly once at PublishAll) therefore invalidates every
// aggregate implicitly; queries compare versions and fall back to the
// base-fact path until the next Refresh.
//
// Admission is benefit-aware, not frequency-only (the trap the dicing
// literature warns about: hot-but-cheap patterns crowding out the
// aggregates that actually shave fact-scan work). Refresh builds the
// hottest candidate patterns — more than it can keep — and installs
// the ones with the highest benefit, where
//
//	benefit = weight × (fact rows scanned / aggregate rows)
//
// i.e. observed demand times the scan fan-in the aggregate collapses.
// Under a byte budget (NewMatAggBudget) the ranking switches to
// benefit PER BYTE and installation stops at the budget, evicting the
// lowest benefit-per-byte candidates first. A hot group-by over a
// near-fact-cardinality key (fan-in ≈ 1) therefore loses its slot to
// a cooler roll-up that collapses thousands of fact rows per group.
//
// Rewrite (answer) picks the COARSEST usable aggregate — fewest groups
// — whose group-by set is a superset of the query's needs and which
// stores every measure the query asks for. The query's filter reads
// group keys only, so it commutes with aggregation: one loop keeps the
// entry's groups that pass it. The kept groups are then merged with the
// one algebra the tree has for partial states, engine.FinalizePartials
// — each kept partial projected onto the query's group-by and
// measures, absorbed into a fresh kernel, finalised and sorted once.
// That is what a shard gather does with per-shard partials, and it is
// byte-identical to one node folding the detail rows for EVERY
// aggregate function: COUNT and int SUM add, MIN/MAX compare, float SUM
// and AVG merge exact expansions (engine.FloatSum), so no function and
// no filter-widened pattern is excluded.
//
// When the entry's granularity equals the query's, the merge would
// absorb each kept group into a group of its own — so that one case
// skips it and projects the rows finalised at build instead
// (BenchmarkOLAPQuery_Materialized, a 25-group cube: ≈ 20 µs per query
// against ≈ 65 µs through the kernel, outside the CI gate's 25 %). The
// filter loop is the same either way; it reads the group keys from the
// half the chosen arm consumes.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/storage"
)

// maxPatterns bounds the query-log pattern map; beyond it the
// lowest-weight pattern is evicted.
const maxPatterns = 512

// candidateFactor is how many candidate patterns Refresh builds per
// retained slot: benefit ranking needs each candidate's actual
// aggregate row count, which is only known after building, so the
// store materializes candidateFactor×topK of the hottest patterns and
// keeps the topK best by benefit (the rest are discarded and GC'd).
const candidateFactor = 2

// valueBytes approximates the in-memory cost of one expr.Value (kind
// tag + int64 + float64 + string header + bool, padded); string
// content is charged on top. Used for the budget accounting — an
// estimate, but a consistent one, so benefit-per-byte ranking and the
// budget cutoff are deterministic. measureBytes is the same for one
// engine.MeasurePartial: counters, the expansion's slice header and
// flags, and the MIN and MAX values; expansion words are charged on
// top.
const (
	valueBytes   = 48
	measureBytes = 64 + 2*valueBytes
)

// derivedWeight is the frequency credited to hierarchy-derived
// lattice neighbours per observation (observed patterns get 1.0, so
// directly-observed granularities win ties).
const derivedWeight = 0.25

// patternDecay ages every retained weight when a full pattern log
// rejects a newcomer, so a persistently shifted workload is admitted
// after a bounded number of rejections instead of being locked out by
// stale accumulated weights. The decay is applied lazily: a rejection
// bumps a global epoch instead of touching every entry, and weights
// are normalized on access (see bumpLocked) — the saturated-log path
// costs O(1) under the store mutex instead of the old O(cap)
// coldest-scan plus full-map multiply.
const patternDecay = 0.95

// aggMeasure is one stored measure of a pattern, canonicalized.
type aggMeasure struct {
	Func string // canonical upper-case aggregate
	Col  string // source column; "" for COUNT(*)
}

func (m aggMeasure) key() string { return m.Func + ":" + m.Col }

// aggPattern is one (fact, group-by set, measure set) granularity
// observed in (or derived from) the query log.
type aggPattern struct {
	key      string
	fact     string
	groupBy  []string // sorted, unique
	measures []aggMeasure
	// weight is stored normalized to the store epoch the pattern was
	// last touched at; its value at the store's current epoch E is
	// weight·patternDecay^(E−epoch). Compare weights only after
	// normalizing to a common epoch.
	weight float64
	epoch  uint64
}

func patternKey(fact string, groupBy []string, measures []aggMeasure) string {
	mk := make([]string, len(measures))
	for i, m := range measures {
		mk[i] = m.key()
	}
	return fact + "|" + strings.Join(groupBy, ",") + "|" + strings.Join(mk, ";")
}

// matEntry is one materialized aggregate: the pattern's group states
// at a specific DB version. Entries are immutable after construction
// and shared by concurrent queries (absorbing a partial never writes
// to it).
type matEntry struct {
	pat *aggPattern
	// parts are the kernel's pre-finalisation states, one per group;
	// rows are those states finalised once at build (group values in
	// pat.groupBy order, then one value per pat.measures), in sorted
	// group order.
	parts   []engine.AggPartial
	rows    [][]expr.Value
	version uint64
	// srcRows records the row count of every source table the entry
	// was built from. The DB version catches every structural change
	// (create/replace/drop/attach, one bump per ETL run), but a direct
	// Table.Insert outside a run does NOT bump it — row counts do
	// change, so answer() re-checks them (the same guard the
	// build-side cache keys on).
	srcRows map[string]int64
	gIdx    map[string]int // group column → position in a group key
	mIdx    map[string]int // measure key → position among the measures
	// factRows is the fact cardinality the entry was built over and
	// bytes its estimated in-memory footprint; benefit is the admission
	// score weight×(factRows/groups) computed at Refresh (see admit).
	factRows int64
	bytes    int64
	benefit  float64
}

// perByte is the entry's benefit density, the ranking used under a
// byte budget.
func (en *matEntry) perByte() float64 {
	b := en.bytes
	if b < 1 {
		b = 1
	}
	return en.benefit / float64(b)
}

// MatAggStats is the admin/stats view of a store.
type MatAggStats struct {
	TopK              int   `json:"top_k"`
	BudgetBytes       int64 `json:"budget_bytes"`
	Patterns          int   `json:"patterns"`
	Materialized      int   `json:"materialized"`
	MaterializedRows  int64 `json:"materialized_rows"`
	MaterializedBytes int64 `json:"materialized_bytes"`
	Recorded          int64 `json:"recorded"`
	// Hits are queries answered at an entry's own granularity, Rewrites
	// queries merged from a finer entry, Misses covered by no entry.
	Hits     int64 `json:"hits"`
	Rewrites int64 `json:"rewrites"`
	Misses   int64 `json:"misses"`
	// BenefitEvicted counts candidates that were built by a Refresh
	// but lost their slot to a higher-benefit (or, under a budget,
	// higher benefit-per-byte) aggregate.
	BenefitEvicted     int64  `json:"benefit_evicted"`
	LastRefreshVersion uint64 `json:"last_refresh_version"`
	LastRefreshError   string `json:"last_refresh_error,omitempty"`
	DimCacheHits       int64  `json:"dim_cache_hits"`
	DimCacheMisses     int64  `json:"dim_cache_misses"`
}

// MatAgg is a materialized-aggregate store plus the per-dimension
// build-side cache (both invalidated by the same DB-version
// lifecycle). It is safe for concurrent use and shared across engine
// rebuilds: attach it with Engine.WithMatAgg.
type MatAgg struct {
	mu       sync.Mutex
	topK     int
	budget   int64 // byte budget for installed aggregates; 0 = unlimited
	patterns map[string]*aggPattern
	entries  map[string]*matEntry
	dims     *dimCache

	recorded, hits, rewrites, misses int64
	// evicted counts built candidates rejected by benefit ranking or
	// the byte budget (Stats.BenefitEvicted).
	evicted            int64
	lastRefreshVersion uint64
	lastRefreshErr     string
	// gen counts wholesale invalidations; a Refresh started before an
	// Invalidate must not install its (old-design) entries afterwards.
	gen uint64
	// epoch implements the lazy log decay: every saturated-log
	// rejection increments it, which ages every pattern's effective
	// weight by one patternDecay factor without touching the entries.
	epoch uint64
	// Running minimum over the log (the eviction candidate). minW —
	// normalized to minEpoch — is EXACT when minExact, else only a
	// lower bound on the true minimum (its pattern was bumped since
	// the last full scan; bumps only raise weights, so the bound stays
	// valid). Rejections compare against the bound in O(1); only a
	// potential admission pays the O(cap) rescan.
	minKey   string
	minW     float64
	minEpoch uint64
	minExact bool
}

// NewMatAgg builds a store materializing up to topK aggregates per
// Refresh (topK <= 0 defaults to 8) with no byte budget.
func NewMatAgg(topK int) *MatAgg { return NewMatAggBudget(topK, 0) }

// NewMatAggBudget builds a store materializing up to topK aggregates
// per Refresh under a byte budget: installed aggregates' estimated
// in-memory footprint never exceeds budgetBytes, and candidates are
// ranked by benefit per byte (budgetBytes <= 0 means unlimited, with
// ranking by plain benefit).
func NewMatAggBudget(topK int, budgetBytes int64) *MatAgg {
	if topK <= 0 {
		topK = 8
	}
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &MatAgg{
		topK:     topK,
		budget:   budgetBytes,
		patterns: map[string]*aggPattern{},
		entries:  map[string]*matEntry{},
		dims:     newDimCache(),
	}
}

// Invalidate drops every materialized aggregate, recorded pattern and
// cached build side. Call it when the unified design changes (a data
// republish needs nothing: versions diverge by themselves).
func (m *MatAgg) Invalidate() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.patterns = map[string]*aggPattern{}
	m.entries = map[string]*matEntry{}
	m.gen++
	m.epoch = 0
	m.minKey, m.minW, m.minEpoch, m.minExact = "", 0, 0, false
	m.mu.Unlock()
	m.dims.purge()
}

// Stats reports the store's counters.
func (m *MatAgg) Stats() MatAggStats {
	if m == nil {
		return MatAggStats{}
	}
	m.mu.Lock()
	st := MatAggStats{
		TopK:               m.topK,
		BudgetBytes:        m.budget,
		Patterns:           len(m.patterns),
		Materialized:       len(m.entries),
		Recorded:           m.recorded,
		Hits:               m.hits,
		Rewrites:           m.rewrites,
		Misses:             m.misses,
		BenefitEvicted:     m.evicted,
		LastRefreshVersion: m.lastRefreshVersion,
		LastRefreshError:   m.lastRefreshErr,
	}
	for _, en := range m.entries {
		st.MaterializedRows += int64(len(en.rows))
		st.MaterializedBytes += en.bytes
	}
	m.mu.Unlock()
	st.DimCacheHits, st.DimCacheMisses = m.dims.stats()
	return st
}

// patternOf canonicalizes a plan into its query-log pattern: the
// resolved group-by set widened by the filter identifiers, plus the
// deduplicated measure set. Dice queries have no pattern (a dice needs
// the detail rows).
func patternOf(p *starPlan) (groupBy []string, measures []aggMeasure, ok bool) {
	if p.dice != nil {
		return nil, nil, false
	}
	set := map[string]bool{}
	for _, g := range p.groupBy {
		set[g] = true
	}
	if p.filter != nil {
		for _, id := range expr.Idents(p.filter) {
			set[id] = true
		}
	}
	for g := range set {
		groupBy = append(groupBy, g)
	}
	sort.Strings(groupBy)
	seen := map[string]bool{}
	for _, a := range p.aggs {
		am := aggMeasure{Func: a.Func, Col: a.Col}
		if seen[am.key()] {
			continue
		}
		seen[am.key()] = true
		measures = append(measures, am)
	}
	sort.Slice(measures, func(i, j int) bool { return measures[i].key() < measures[j].key() })
	return groupBy, measures, true
}

// record logs one planned query and its hierarchy-derived coarser
// lattice neighbours. Pattern canonicalization and the roll-up
// closure run before the store lock is taken — only the weight bumps
// serialize, keeping contention off the serving hot path.
func (m *MatAgg) record(e *Engine, p *starPlan) {
	groupBy, measures, ok := patternOf(p)
	if !ok {
		return
	}
	variants := e.rollupVariants(groupBy)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recorded++
	m.bumpLocked(p.fact.Name, groupBy, measures, 1)
	for _, variant := range variants {
		m.bumpLocked(p.fact.Name, variant, measures, derivedWeight)
	}
}

// normLocked returns pat's weight normalized to the current epoch.
func (m *MatAgg) normLocked(pat *aggPattern) float64 {
	if pat.epoch == m.epoch {
		return pat.weight
	}
	return pat.weight * math.Pow(patternDecay, float64(m.epoch-pat.epoch))
}

// minNowLocked returns the running-min weight normalized to the
// current epoch (exact or lower bound per minExact).
func (m *MatAgg) minNowLocked() float64 {
	if m.minEpoch == m.epoch {
		return m.minW
	}
	return m.minW * math.Pow(patternDecay, float64(m.epoch-m.minEpoch))
}

// dropPatternLocked removes a pattern from the log (Refresh drops
// patterns that no longer plan). If it was the running-min candidate,
// the stored bound stays valid (removal can only raise the true
// minimum) but degrades to non-exact, so the next admission decision
// rescans instead of "evicting" the missing key — which would have
// let the log creep past maxPatterns.
func (m *MatAgg) dropPatternLocked(key string) {
	delete(m.patterns, key)
	if key == m.minKey {
		m.minExact = false
	}
}

// rescanMinLocked recomputes the exact running minimum — the O(cap)
// slow path, paid only when an admission decision needs exactness,
// never on the rejection fast path. Ties break toward the highest
// key, matching the old coldest-scan's eviction choice.
func (m *MatAgg) rescanMinLocked() {
	m.minKey, m.minW, m.minEpoch, m.minExact = "", 0, m.epoch, true
	for _, pat := range m.patterns {
		w := m.normLocked(pat)
		if m.minKey == "" || w < m.minW || (w == m.minW && pat.key > m.minKey) {
			m.minKey, m.minW = pat.key, w
		}
	}
}

// bumpLocked records weight w for a pattern, evicting the coldest
// entry when a hotter newcomer hits a full log. The saturated-log hot
// path — a colder newcomer bouncing off a full log, the steady state
// of a workload with more distinct granularities than maxPatterns —
// is O(1): the newcomer is compared against the running-min bound and
// the decay is an epoch increment, so the serving lock is held for
// constant work (the old implementation scanned and multiplied the
// whole map on every such rejection).
func (m *MatAgg) bumpLocked(fact string, groupBy []string, measures []aggMeasure, w float64) {
	key := patternKey(fact, groupBy, measures)
	if pat, ok := m.patterns[key]; ok {
		pat.weight = m.normLocked(pat) + w
		pat.epoch = m.epoch
		if key == m.minKey {
			// The coldest pattern warmed up: minW degrades to a lower
			// bound until the next rescan.
			m.minExact = false
		}
		return
	}
	if len(m.patterns) < maxPatterns {
		m.patterns[key] = &aggPattern{
			key:      key,
			fact:     fact,
			groupBy:  append([]string(nil), groupBy...),
			measures: append([]aggMeasure(nil), measures...),
			weight:   w,
			epoch:    m.epoch,
		}
		if m.minKey == "" || w < m.minNowLocked() {
			// Below the (lower-bound) minimum means below every kept
			// weight, so the newcomer is the exact new minimum.
			m.minKey, m.minW, m.minEpoch, m.minExact = key, w, m.epoch, true
		}
		return
	}
	if m.minKey == "" {
		m.rescanMinLocked()
	}
	if m.minNowLocked() > w {
		// Colder than everything kept (the bound under-estimates the
		// true minimum, so bound > w suffices even when stale): reject,
		// and age the whole log one decay step — lazily, via the epoch
		// — so a persistently shifted workload is admitted after a
		// bounded number of rejections. This is the O(1) hot path.
		m.epoch++
		return
	}
	if !m.minExact {
		// The bound allows admission; get the exact minimum first.
		m.rescanMinLocked()
		if m.minNowLocked() > w {
			m.epoch++
			return
		}
	}
	delete(m.patterns, m.minKey)
	m.patterns[key] = &aggPattern{
		key:      key,
		fact:     fact,
		groupBy:  append([]string(nil), groupBy...),
		measures: append([]aggMeasure(nil), measures...),
		weight:   w,
		epoch:    m.epoch,
	}
	m.rescanMinLocked()
}

// rollupVariants derives the coarser lattice neighbours of a group-by
// set along the xMD hierarchies: every column that is some level's key
// descriptor is replaced, one roll-up edge at a time, by the parent
// level's key (precomputed in New), and the closure of such
// replacements is returned (excluding the original set).
func (e *Engine) rollupVariants(groupBy []string) [][]string {
	parents := e.rollupParents
	if len(parents) == 0 {
		return nil
	}
	canon := func(set []string) string { return strings.Join(set, ",") }
	start := append([]string(nil), groupBy...)
	sort.Strings(start)
	seen := map[string]bool{canon(start): true}
	frontier := [][]string{start}
	var out [][]string
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for i, col := range cur {
			for _, parent := range parents[col] {
				variant := make([]string, 0, len(cur))
				variant = append(variant, cur[:i]...)
				variant = append(variant, cur[i+1:]...)
				dup := false
				for _, v := range variant {
					if v == parent {
						dup = true
						break
					}
				}
				if !dup {
					variant = append(variant, parent)
				}
				sort.Strings(variant)
				if seen[canon(variant)] {
					continue
				}
				seen[canon(variant)] = true
				out = append(out, variant)
				frontier = append(frontier, variant)
			}
		}
	}
	return out
}

// estimateBytes approximates the in-memory footprint of an entry: its
// partial states and the rows finalised from them — slice headers,
// valueBytes per value, measureBytes per measure state, and string
// content and expansion words on top. The budget accounting only needs
// a consistent estimate, not exact heap sizes.
func estimateBytes(parts []engine.AggPartial, rows [][]expr.Value) int64 {
	var b int64
	content := func(vals ...expr.Value) {
		for _, v := range vals {
			if v.Kind() == expr.KindString {
				b += int64(len(v.AsString()))
			}
		}
	}
	for i := range parts {
		pt := &parts[i]
		b += 2*24 + int64(len(pt.Group))*valueBytes + int64(len(pt.Measures))*measureBytes
		content(pt.Group...)
		for j := range pt.Measures {
			m := &pt.Measures[j]
			b += 8 * int64(len(m.SumParts))
			content(m.Min, m.Max)
		}
	}
	for _, r := range rows {
		b += 24 + int64(len(r))*valueBytes
		content(r...)
	}
	return b
}

// RefreshReport summarises one Refresh.
type RefreshReport struct {
	Materialized int
	Rows         int64
	Dropped      int // patterns that no longer plan (dropped from the log)
	// Evicted counts candidates built this pass but not installed:
	// outranked by higher-benefit aggregates or cut by the byte budget.
	Evicted int
}

// admitEntries picks the entries to install from the built candidate
// set: ranked by benefit — weight × (fact rows scanned / aggregate
// rows), the fact-scan work the aggregate saves per served query —
// or, under a byte budget, by benefit PER BYTE, taken greedily
// subject to both the top-K slot cap and the budget. Greedy from the
// top is equivalent to evicting the lowest benefit-per-byte
// candidates until the rest fit. A candidate too large for the
// remaining budget is skipped, not terminal: a smaller, lower-ranked
// aggregate may still fit (classic knapsack greedy). Ties break on
// the pattern key for determinism.
func admitEntries(cands []*matEntry, topK int, budget int64) []*matEntry {
	rank := func(en *matEntry) float64 {
		if budget > 0 {
			return en.perByte()
		}
		return en.benefit
	}
	sorted := append([]*matEntry(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		ri, rj := rank(sorted[i]), rank(sorted[j])
		if ri != rj {
			return ri > rj
		}
		return sorted[i].pat.key < sorted[j].pat.key
	})
	keep := make([]*matEntry, 0, topK)
	var used int64
	for _, en := range sorted {
		if len(keep) >= topK {
			break
		}
		if budget > 0 && used+en.bytes > budget {
			continue
		}
		keep = append(keep, en)
		used += en.bytes
	}
	return keep
}

// Refresh materializes the hottest candidate patterns, each from its
// own snapshot of the deployed tables, ranks them by benefit (see
// admitEntries) and atomically swaps in the winning entry set.
// Patterns that no longer plan against the deployed design (e.g. after
// a lifecycle change removed a column) are dropped from the log.
// Concurrent queries keep answering from the previous entries — the
// per-entry version check makes any stale entry unservable regardless.
func (m *MatAgg) Refresh(e *Engine) (RefreshReport, error) {
	var rep RefreshReport
	if m == nil || e == nil {
		return rep, nil
	}
	// Snapshot (pattern, weight) under the lock: weights keep being
	// bumped by concurrent queries while we sort and build. Weights
	// are normalized to a common epoch here — entries touched at
	// different epochs are not directly comparable. Everything else on
	// a pattern is immutable after creation.
	type ranked struct {
		pat    *aggPattern
		weight float64
	}
	m.mu.Lock()
	startGen := m.gen
	snapshot := make([]ranked, 0, len(m.patterns))
	for _, pat := range m.patterns {
		snapshot = append(snapshot, ranked{pat, m.normLocked(pat)})
	}
	topK := m.topK
	budget := m.budget
	m.mu.Unlock()
	sort.Slice(snapshot, func(i, j int) bool {
		if snapshot[i].weight != snapshot[j].weight {
			return snapshot[i].weight > snapshot[j].weight
		}
		return snapshot[i].pat.key < snapshot[j].pat.key
	})
	// Benefit needs each candidate's aggregate row count, which only
	// the build reveals — so build more candidates than slots (the
	// hottest candidateFactor×topK by weight) and let admitEntries
	// keep the best. This is what lets a cooler high-fan-in roll-up
	// displace a hot near-fact-cardinality pattern that raw frequency
	// ranking would have locked in.
	if limit := candidateFactor * topK; len(snapshot) > limit {
		snapshot = snapshot[:limit]
	}
	cands := make([]*matEntry, 0, len(snapshot))
	var firstErr error
	// The refresh is current as of the version it started against even
	// when it builds nothing (an empty log, or one whose every pattern
	// stopped planning): the previous version's entries are released and
	// LastRefreshVersion advances all the same.
	maxVersion := e.db.Version()
	for _, r := range snapshot {
		en, err := m.build(e, r.pat)
		if err != nil {
			rep.Dropped++
			if firstErr == nil {
				firstErr = fmt.Errorf("matagg: pattern %s: %w", r.pat.key, err)
			}
			m.mu.Lock()
			m.dropPatternLocked(r.pat.key)
			m.mu.Unlock()
			continue
		}
		en.benefit = r.weight * float64(en.factRows) / float64(max(len(en.rows), 1))
		cands = append(cands, en)
		maxVersion = max(maxVersion, en.version)
	}
	keep := admitEntries(cands, topK, budget)
	rep.Evicted = len(cands) - len(keep)
	entries := make(map[string]*matEntry, len(keep))
	for _, en := range keep {
		entries[en.pat.key] = en
		rep.Materialized++
		rep.Rows += int64(len(en.rows))
	}
	m.mu.Lock()
	// Install only when still current: an Invalidate (design change)
	// since we started means these entries were built from the old
	// design, and a concurrent Refresh that already installed entries
	// at a NEWER warehouse version must not be overwritten with
	// stale-version ones (which would be unservable and silently
	// degrade every query to the base path until the next run).
	if m.gen == startGen && maxVersion >= m.lastRefreshVersion {
		m.entries = entries
		m.lastRefreshVersion = maxVersion
		m.evicted += int64(rep.Evicted)
		if firstErr != nil {
			m.lastRefreshErr = firstErr.Error()
		} else {
			m.lastRefreshErr = ""
		}
	} else {
		rep.Materialized = 0
		rep.Rows = 0
	}
	m.mu.Unlock()
	return rep, firstErr
}

// build materializes one pattern: plan → snapshot → the partial-answer
// body (partialOn) → group states keyed by the snapshot version, plus
// the rows finalised from them.
func (m *MatAgg) build(e *Engine, pat *aggPattern) (*matEntry, error) {
	q := CubeQuery{Fact: pat.fact, GroupBy: append([]string(nil), pat.groupBy...)}
	for _, am := range pat.measures {
		q.Measures = append(q.Measures, MeasureSpec{Out: am.key(), Func: am.Func, Col: am.Col})
	}
	p, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	snap, err := e.db.Snapshot(p.tables...)
	if err != nil {
		return nil, err
	}
	parts, err := e.partialOn(context.Background(), p, snap)
	if err != nil {
		return nil, err
	}
	rows, err := engine.FinalizePartials(len(pat.groupBy), p.aggs, parts)
	if err != nil {
		return nil, err
	}
	en := &matEntry{
		pat:     pat,
		parts:   parts,
		rows:    rows,
		version: snap.Version(),
		srcRows: make(map[string]int64, len(p.tables)),
		gIdx:    make(map[string]int, len(pat.groupBy)),
		mIdx:    make(map[string]int, len(pat.measures)),
		bytes:   estimateBytes(parts, rows),
	}
	for _, name := range p.tables {
		view, ok := snap.Table(name)
		if !ok {
			return nil, fmt.Errorf("snapshot lacks table %q", name)
		}
		en.srcRows[name] = view.NumRows()
	}
	en.factRows = en.srcRows[pat.fact]
	for i, g := range pat.groupBy {
		en.gIdx[g] = i
	}
	for i, am := range pat.measures {
		en.mIdx[am.key()] = i
	}
	return en, nil
}

// answer tries to rewrite the planned query onto the coarsest eligible
// materialized aggregate at the snapshot's version. ok is false when
// no aggregate covers the query (or versions mismatch) — the caller
// falls back to the base-fact path.
func (m *MatAgg) answer(e *Engine, p *starPlan, snap *storage.Snapshot) (*Result, bool, error) {
	if m == nil || p.dice != nil {
		return nil, false, nil
	}
	// need is what an entry must group by: the query's group columns and
	// every column its filter reads.
	need := map[string]bool{}
	for _, g := range p.groupBy {
		need[g] = true
	}
	groupCols := len(need)
	if p.filter != nil {
		for _, id := range expr.Idents(p.filter) {
			need[id] = true
		}
	}
	version := snap.Version()
	m.mu.Lock()
	var best *matEntry
entries:
	for _, en := range m.entries {
		if en.pat.fact != p.fact.Name || en.version != version {
			continue
		}
		// Version equality catches every structural change, but direct
		// row appends outside an engine run don't bump it: re-check the
		// entry's source row counts (through the query's snapshot where
		// it covers the table, the live table otherwise — appends only
		// grow tables, so any count drift means the entry is stale and
		// the query falls back to the base path).
		for name, n := range en.srcRows {
			now := int64(-1)
			if view, ok := snap.Table(name); ok {
				now = view.NumRows()
			} else if live, ok := e.db.Table(name); ok {
				now = live.NumRows()
			}
			if now != n {
				continue entries
			}
		}
		for col := range need {
			if _, ok := en.gIdx[col]; !ok {
				continue entries
			}
		}
		for _, a := range p.aggs {
			if _, ok := en.mIdx[a.Func+":"+a.Col]; !ok {
				continue entries
			}
		}
		// Coarsest usable aggregate: fewest groups; deterministic
		// tie-break on the pattern key.
		if best == nil || len(en.rows) < len(best.rows) || (len(en.rows) == len(best.rows) && en.pat.key < best.pat.key) {
			best = en
		}
	}
	if best == nil {
		m.misses++
		m.mu.Unlock()
		return nil, false, nil
	}
	// The entry groups by everything the query does, so equally many
	// group columns means the same granularity (column order and
	// duplicates don't matter — projection handles both).
	same := len(best.pat.groupBy) == groupCols
	if same {
		m.hits++
	} else {
		m.rewrites++
	}
	m.mu.Unlock()
	rows, err := best.serve(p, same)
	if err != nil {
		return nil, false, err
	}
	return &Result{Columns: p.resultColumns(), Rows: rows}, true, nil
}

// serve answers the planned query from the entry. One loop keeps the
// groups passing the filter (group-key predicates commute with
// aggregation); the kept groups, projected onto the query's group-by
// and measures, are merged by engine.FinalizePartials — the merge a
// shard gather runs, exact for every aggregate function. At the entry's
// own granularity (same) every kept group would merge into a group of
// its own, so the rows finalised at build are projected and sorted
// instead.
func (en *matEntry) serve(p *starPlan, same bool) ([][]expr.Value, error) {
	// The loop reads group keys from whichever half the chosen arm
	// consumes, so neither arm depends on the other's order.
	n, key := len(en.parts), func(i int) []expr.Value { return en.parts[i].Group }
	if same {
		n, key = len(en.rows), func(i int) []expr.Value { return en.rows[i][:len(en.gIdx)] }
	}
	kept := make([]int, 0, n)
	env := expr.NewSliceEnv(en.gIdx)
	for i := 0; i < n; i++ {
		if p.filter != nil {
			env.Bind(key(i))
			ok, err := expr.EvalBool(p.filter, env.Env())
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		kept = append(kept, i)
	}
	gPos := make([]int, len(p.groupBy))
	for i, g := range p.groupBy {
		gPos[i] = en.gIdx[g]
	}
	mPos := make([]int, len(p.aggs))
	for i, a := range p.aggs {
		mPos[i] = en.mIdx[a.Func+":"+a.Col]
	}
	if same {
		out := make([][]expr.Value, len(kept))
		for k, i := range kept {
			row := make([]expr.Value, 0, len(gPos)+len(mPos))
			for _, j := range gPos {
				row = append(row, en.rows[i][j])
			}
			for _, j := range mPos {
				row = append(row, en.rows[i][len(en.gIdx)+j])
			}
			out[k] = row
		}
		return engine.SortRowsBy(out, leading(len(gPos))), nil
	}
	// One slab per kind instead of two slices per kept group; the kernel
	// copies the group values it keeps.
	parts := make([]engine.AggPartial, len(kept))
	groups := make([]expr.Value, 0, len(kept)*len(gPos))
	measures := make([]engine.MeasurePartial, 0, len(kept)*len(mPos))
	for k, i := range kept {
		for _, j := range gPos {
			groups = append(groups, en.parts[i].Group[j])
		}
		for _, j := range mPos {
			measures = append(measures, en.parts[i].Measures[j])
		}
		parts[k] = engine.AggPartial{Group: groups[len(groups)-len(gPos):], Measures: measures[len(measures)-len(mPos):]}
	}
	return engine.FinalizePartials(len(gPos), p.aggs, parts)
}

// leading returns the positions 0..n-1: the group columns of a result
// row or a group key.
func leading(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
