package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/netsim"
)

// unionSortMerge is Merge as it was first written: a union of every input
// deduplicated by key (the first occurrence wins), sorted by (hash, key)
// with sort.Slice and truncated to sampleSize. It is the oracle the k-way
// Merge must match.
func unionSortMerge(sampleSize int, shardSamples ...[]netsim.SampleEntry) []netsim.SampleEntry {
	var union []netsim.SampleEntry
	seen := make(map[string]struct{})
	for _, sample := range shardSamples {
		for _, e := range sample {
			if _, dup := seen[e.Key]; dup {
				continue
			}
			seen[e.Key] = struct{}{}
			union = append(union, e)
		}
	}
	sort.Slice(union, func(i, j int) bool {
		if union[i].Hash != union[j].Hash {
			return union[i].Hash < union[j].Hash
		}
		return union[i].Key < union[j].Key
	})
	if sampleSize > 0 && len(union) > sampleSize {
		union = union[:sampleSize]
	}
	return union
}

// TestMergeMatchesUnionSort compares the k-way Merge with the union-sort
// oracle over random shard splits: sorted and unsorted inputs, replicated
// copies of a shard whose Expiry differs (the first input's copy must win),
// distinct keys on equal hashes, empty shards, and sample sizes from
// non-positive to above the union.
func TestMergeMatchesUnionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		population := rng.Intn(300)
		shards := make([][]netsim.SampleEntry, 1+rng.Intn(6))
		for i := 0; i < population; i++ {
			e := netsim.SampleEntry{Key: fmt.Sprintf("k%d", i), Hash: rng.Float64(), Expiry: rng.Int63n(100)}
			if rng.Intn(4) == 0 {
				e.Hash = float64(rng.Intn(16)) / 16 // distinct keys sharing a hash
			}
			c := rng.Intn(len(shards))
			shards[c] = append(shards[c], e)
		}
		var inputs [][]netsim.SampleEntry
		for _, shard := range shards {
			slices.SortFunc(shard, netsim.CompareEntries)
			inputs = append(inputs, shard)
			if rng.Intn(3) == 0 { // a replica's copy, synced at another slot
				replica := slices.Clone(shard)
				for i := range replica {
					replica[i].Expiry += 1 + rng.Int63n(5)
				}
				inputs = append(inputs, replica)
			}
		}
		rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
		for _, in := range inputs {
			if rng.Intn(4) == 0 {
				rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			}
		}
		snapshot := make([][]netsim.SampleEntry, len(inputs))
		for i, in := range inputs {
			snapshot[i] = slices.Clone(in)
		}
		for _, size := range []int{-1, 0, 1, 1 + rng.Intn(population+1), population, population + 5} {
			got, want := Merge(size, inputs...), unionSortMerge(size, inputs...)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, sampleSize %d: Merge differs from the union sort\n got  %+v\n want %+v", trial, size, got, want)
			}
		}
		for i := range inputs {
			if !slices.Equal(inputs[i], snapshot[i]) {
				t.Fatalf("trial %d: Merge modified input %d", trial, i)
			}
		}
	}

	for _, inputs := range [][][]netsim.SampleEntry{nil, {nil}, {nil, {}, nil}} {
		if got := Merge(4, inputs...); got != nil {
			t.Fatalf("Merge of %d empty inputs = %+v, want nil", len(inputs), got)
		}
	}
}

// BenchmarkMerge times the query-side merge of 2 and 8 sorted shard samples
// of 16384 entries each down to the global bottom-16384, for the k-way Merge
// and for the union-sort oracle it replaced.
func BenchmarkMerge(b *testing.B) {
	const s = 16384
	rng := rand.New(rand.NewSource(1))
	for _, shards := range []int{2, 8} {
		samples := make([][]netsim.SampleEntry, shards)
		for c := range samples {
			samples[c] = make([]netsim.SampleEntry, s)
			for i := range samples[c] {
				samples[c][i] = netsim.SampleEntry{Key: fmt.Sprintf("s%d-%d", c, i), Hash: rng.Float64()}
			}
			slices.SortFunc(samples[c], netsim.CompareEntries)
		}
		for _, impl := range []struct {
			name  string
			merge func(int, ...[]netsim.SampleEntry) []netsim.SampleEntry
		}{{"kway", Merge}, {"unionsort", unionSortMerge}} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := impl.merge(s, samples...); len(got) != s {
						b.Fatalf("merged %d entries, want %d", len(got), s)
					}
				}
			})
		}
	}
}
