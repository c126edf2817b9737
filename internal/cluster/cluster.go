// Package cluster scales the deployable system from one coordinator to a
// sharded cluster of C coordinators, each running an unmodified protocol
// instance (core.InfiniteCoordinator or sliding.Coordinator) over its own
// slice of the key space.
//
// The subsystem rests on one property of the paper's sample: the coordinator
// maintains the bottom-s set of hash values over distinct keys, and bottom-s
// sketches under a shared hash function are mergeable. Partition the key
// space into C disjoint parts, maintain an independent bottom-s sketch per
// part, and the bottom-s of the union of the C sketches is exactly the
// bottom-s of the whole key space: every key in the global bottom-s lives in
// some part, and fewer than s keys of that part hash below it, so the part's
// sketch retains it. This is the same composability exploited by the
// level-based distributed sampling algorithms of Cormode–Muthukrishnan–
// Yi–Zhang (PODS 2010) and Tirthapura–Woodruff (DISC 2011).
//
// Concretely:
//
//   - ShardRouter deterministically assigns each key to one of C shards by a
//     prefix of its (rehashed) digest, so every site and every query client
//     agrees on the partition without coordination.
//   - Each shard is an ordinary wire.CoordinatorServer; sites hold one
//     protocol site instance and one connection per shard, so per-shard
//     thresholds and message bounds follow the paper's analysis applied to
//     the shard's substream (O(k·s·ln(d_c)) messages for shard c with d_c
//     distinct keys).
//   - Merge unions per-shard samples into the exact global bottom-s at query
//     time; MergedThreshold and DistinctCount feed internal/estimate for
//     cluster-wide answers.
//
// For the sliding-window protocol the same merge applies with s = 1 per
// shard: the global window sample is the minimum-hash live entry across the
// shard minima.
package cluster

import (
	"errors"
	"slices"

	"repro/internal/estimate"
	"repro/internal/hashing"
	"repro/internal/netsim"
)

// ShardRouter deterministically assigns keys to shards. Routing uses the
// SplitMix64 finalizer over the shared hasher's digest rather than the digest
// itself: the digest's magnitude decides sample membership (smallest hashes
// win), so partitioning by a prefix of the raw digest would concentrate the
// entire global sample in shard 0. The rehash makes the shard index
// effectively independent of sample membership, spreading both ingest load
// and sample entries evenly across shards, while remaining a pure function of
// (hasher seed, key) that every node computes identically.
//
// The partition itself is a versioned RangeTable of contiguous hash-prefix
// ranges. A freshly constructed router holds the uniform C-way table; online
// resharding (see Resharder) publishes newer tables that split or merge
// ranges, and each SiteClient flips to them independently under the version
// fence. The router value is immutable — it describes the partition at
// construction time and hands clients their initial table.
type ShardRouter struct {
	table  RangeTable
	hasher hashing.UnitHasher
}

// NewShardRouter builds a router over the cluster's shared hash function.
// shards below 1 is treated as 1.
func NewShardRouter(shards int, hasher hashing.UnitHasher) *ShardRouter {
	return &ShardRouter{table: UniformTable(shards), hasher: hasher}
}

// NewRangeRouter builds a router over an explicit range table — the way a
// site joining a cluster that has already resharded adopts the current
// partition (e.g. fetched from the coordinator's reshard admin listener)
// instead of assuming the uniform one.
func NewRangeRouter(table RangeTable, hasher hashing.UnitHasher) (*ShardRouter, error) {
	if err := table.Validate(); err != nil {
		return nil, err
	}
	return &ShardRouter{table: table.clone(), hasher: hasher}, nil
}

// Shards returns the number of live shard slots.
func (r *ShardRouter) Shards() int { return r.table.NumRanges() }

// Table returns the router's (initial) range table.
func (r *ShardRouter) Table() RangeTable { return r.table.clone() }

// RouteHash returns the 64-bit routing hash of key: the SplitMix64 finalizer
// over the shared digest, the value the range table partitions on. It is the
// function coordinators need installed (wire.CoordinatorServer.SetRouteHash)
// to filter sample entries by range during resharding.
func (r *ShardRouter) RouteHash(key string) uint64 {
	return hashing.Mix64(r.hasher.Hash(key))
}

// Shard returns the shard slot owning key under the router's table.
func (r *ShardRouter) Shard(key string) int {
	return r.table.Lookup(r.RouteHash(key))
}

// Merge unions per-shard samples and returns the bottom-s of the union,
// ordered by ascending (hash, key) — exactly the global sample a single
// coordinator over the whole stream would hold, provided the shard samples
// come from a disjoint partition of the key space under the same hash
// function AND sampleSize does not exceed any shard's own sketch capacity: a
// shard only retains its bottom-s, so asking the merge for more than s
// entries can silently substitute larger hashes for a shard's discarded
// ones. sampleSize <= 0 keeps the whole union (useful for sliding-window
// merges, where each shard contributes at most one live entry and the global
// sample is the overall minimum).
//
// Shard samples arrive sorted (every sampler's Sample is), so Merge is a
// k-way merge that stops after sampleSize entries; an unsorted input is
// sorted in a copy first. Equal (hash, key) entries — replicated copies of
// one shard's state — collapse to one, and the earliest input's copy (its
// Expiry) wins. Because every party hashes with one shared function, a key
// never appears under two hashes, so this is the union deduplicated by key.
func Merge(sampleSize int, shardSamples ...[]netsim.SampleEntry) []netsim.SampleEntry {
	inputs := make([][]netsim.SampleEntry, 0, len(shardSamples))
	total := 0
	for _, sample := range shardSamples {
		if len(sample) == 0 {
			continue
		}
		if !slices.IsSortedFunc(sample, netsim.CompareEntries) {
			sample = slices.Clone(sample)
			slices.SortStableFunc(sample, netsim.CompareEntries)
		}
		inputs = append(inputs, sample)
		total += len(sample)
	}
	if total == 0 {
		return nil
	}
	if sampleSize > 0 && sampleSize < total {
		total = sampleSize
	}
	out := make([]netsim.SampleEntry, 0, total)
	for len(out) < total {
		// The smallest head; on a tie the earliest input wins.
		best := -1
		for i, in := range inputs {
			if len(in) > 0 && (best < 0 || netsim.CompareEntries(in[0], inputs[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := inputs[best][0]
		inputs[best] = inputs[best][1:]
		if n := len(out); n > 0 && out[n-1].Hash == e.Hash && out[n-1].Key == e.Key {
			continue
		}
		out = append(out, e)
	}
	return out
}

// MergeWindow unions per-shard sliding-window candidate sets, drops entries
// that have expired by slot now, and returns the minimum-hash live entry —
// the global window sample — or nil when nothing is live. The explicit
// clock matters because shard coordinators expire lazily (only a message or
// slot-end advances them): an idle shard may still report an expired entry.
// The filter is exact over whatever candidates the inputs carry; note that
// a shard's single-entry Sample() hides live higher-hash candidates behind
// an expired minimum, so callers that may query an idle shard should feed
// MergeWindow full snapshot stores instead (see QueryWindowGroups). At an
// EndSlot-quiesced boundary with every shard actively served, Sample()
// inputs are exact too: a site whose candidate expired re-offers its next
// best at the slot end, refreshing the shard minimum.
func MergeWindow(now int64, shardSamples ...[]netsim.SampleEntry) []netsim.SampleEntry {
	var best netsim.SampleEntry
	have := false
	for _, sample := range shardSamples {
		for _, e := range sample {
			if e.Expiry < now {
				continue
			}
			if !have || e.Hash < best.Hash || (e.Hash == best.Hash && e.Key < best.Key) {
				best, have = e, true
			}
		}
	}
	if !have {
		return nil
	}
	return []netsim.SampleEntry{best}
}

// MergedThreshold returns the threshold u of a merged sample: 1 while the
// merged sample holds fewer than sampleSize entries (the union is the whole
// distinct population), otherwise the largest retained hash — the same
// definition core's bottomSet uses, so merged samples plug directly into
// internal/estimate.
func MergedThreshold(merged []netsim.SampleEntry, sampleSize int) float64 {
	if len(merged) < sampleSize {
		return 1
	}
	return merged[len(merged)-1].Hash
}

// ErrNoShards is returned by cluster operations invoked with no shard
// samples or addresses.
var ErrNoShards = errors.New("cluster: need at least one shard")

// DistinctCount merges the per-shard samples and estimates the cluster-wide
// number of distinct elements with a ~95% confidence interval.
func DistinctCount(sampleSize int, shardSamples ...[]netsim.SampleEntry) (estimate.Interval, error) {
	if len(shardSamples) == 0 {
		return estimate.Interval{}, ErrNoShards
	}
	merged := Merge(sampleSize, shardSamples...)
	return estimate.DistinctCount(merged, sampleSize, MergedThreshold(merged, sampleSize))
}
