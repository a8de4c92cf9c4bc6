// Package shard implements Quarry's write/data scale-out layer: a
// large fact table is hash-partitioned by join key across N quarryd
// shards, dimensions are replicated to every shard, and cube queries
// are answered by scatter-gather — each shard aggregates its own
// partition with the normal kernels and ships pre-finalisation
// partial aggregates (wire.go), which the router merges (merge.go)
// into an answer byte-identical to a single node holding all rows.
//
// The merge algebra is the classical distributive/algebraic
// decomposition: COUNT and int SUM merge by addition, MIN/MAX by
// comparison, AVG ships SUM+COUNT and divides once after the merge.
// Float SUM is the one aggregate IEEE rounding would make depend on the
// partition, so it ships as an exact non-overlapping expansion
// (engine.FloatSum) and is rounded exactly once, after the merge —
// making the result a function of the row multiset alone, independent
// of how rows were partitioned. A diamond dice is cut after the merge,
// over the merged cells. See docs/ARCHITECTURE.md ("Sharding").
//
// Epoch protocol: every partial answer carries the shard's warehouse
// version. Shards load deterministically (same designs, same sources,
// same partition function), so their versions advance in lockstep;
// the gather refuses to merge answers from different epochs
// (ErrEpochSkew) — a mid-scatter reload can delay a query, never
// corrupt it.
package shard

import (
	"fmt"
	"slices"

	"quarry/internal/expr"
	"quarry/internal/sqlgen"
)

// Spec identifies one shard of an N-way hash-partitioned warehouse.
// The zero value (Count 0) means "not sharded".
type Spec struct {
	Index int // this shard's 0-based index
	Count int // total number of shards
}

// Enabled reports whether the spec describes a shard at all.
func (s Spec) Enabled() bool { return s.Count > 0 }

// Validate checks the spec is a well-formed shard identity.
func (s Spec) Validate() error {
	if s.Count <= 0 {
		return fmt.Errorf("shard: count must be >= 1 (got %d)", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard: index %d out of range [0,%d)", s.Index, s.Count)
	}
	return nil
}

func (s Spec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// KeyColumn returns the partition-key column of a deployed table: the
// first declared foreign key. Tables without foreign keys are
// dimensions and are not partitioned ("").
//
// Using the first FK is arbitrary but deterministic: every shard
// derives its table definitions from the same unified design, so all
// shards — and the single-node oracle reasoning about them — agree on
// the key without any coordination.
func KeyColumn(def *sqlgen.TableDef) string {
	if len(def.ForeignKeys) == 0 {
		return ""
	}
	return def.ForeignKeys[0].Column
}

// PartitionKeys derives the partition key of every fact table in a
// deployed design (tables with no foreign keys — dimensions — are
// absent from the map).
func PartitionKeys(defs []sqlgen.TableDef) map[string]string {
	keys := make(map[string]string)
	for i := range defs {
		if k := KeyColumn(&defs[i]); k != "" {
			keys[defs[i].Name] = k
		}
	}
	return keys
}

// Owner returns the shard index owning a partition-key value:
// Hash(key) mod Count. expr.Value.Hash is stable across processes and
// hashes numerically-equal ints and floats identically, so ownership
// never depends on which node computes it. NULL keys hash like any
// other value and land deterministically on one shard.
func (s Spec) Owner(v expr.Value) int {
	return int(v.Hash() % uint64(s.Count))
}

// LoadFilter returns the engine load-filter hook
// (engine.Options.LoadFilter) for this shard: fact tables (those with
// an entry in keys, from PartitionKeys) keep only the rows this shard
// owns; every other table — the dimensions — loads in full on every
// shard. A nil receiver spec (Count 0) returns nil: no filtering.
func (s Spec) LoadFilter(keys map[string]string) func(table string, cols []string) (func(row []expr.Value) bool, error) {
	if !s.Enabled() {
		return nil
	}
	return func(table string, cols []string) (func(row []expr.Value) bool, error) {
		key := keys[table]
		if key == "" {
			return nil, nil // dimension: replicate everywhere
		}
		pos := slices.Index(cols, key)
		if pos == -1 {
			// Loading the full fact here would silently double-count
			// rows across the cluster; refuse instead.
			return nil, fmt.Errorf("shard: fact table %q lacks its partition key column %q", table, key)
		}
		return func(row []expr.Value) bool { return s.Owner(row[pos]) == s.Index }, nil
	}
}
