package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netsim"
)

// fuzzCapacities are the set capacities FuzzBottomSet picks from with its
// first input byte: around one and two runs, and the unbounded memo.
var fuzzCapacities = []int{1, 2, 3, maxRun - 1, maxRun, maxRun + 1, 2*maxRun + 1, math.MaxInt}

// Operations of a FuzzBottomSet input, one byte each plus argument bytes.
const (
	fuzzOffer   = iota // 2 bytes: the new key's hash, quantized to 1/65536
	fuzzReOffer        // 1 byte: which earlier pair to offer again
	fuzzBurst          // 3 bytes: count/4, order (ascending, descending, random), seed
	fuzzRestore        // 1 byte: how many earlier pairs to add to the current entries
	fuzzPrune          // 1 byte: u in 1/256 steps
	fuzzOps
)

// fuzzSeedInputs are the run-boundary cases the corpus starts from.
var fuzzSeedInputs = [][]byte{
	{4, fuzzBurst, maxRun / 4, 0, 1, fuzzOffer, 0x80, 0},                            // fill one run exactly, ascending, then insert
	{5, fuzzBurst, maxRun / 4, 1, 2, fuzzBurst, 1, 2, 3, fuzzReOffer, 7},            // one past a run, descending
	{6, fuzzBurst, 0xff, 2, 3, fuzzRestore, 5, fuzzOffer, 0, 1, fuzzPrune, 0x40},    // several runs, restore, prune
	{7, fuzzBurst, 0xff, 2, 4, fuzzPrune, 0x90, fuzzPrune, 0x20, fuzzPrune, 0},      // memo pruned run by run to empty
	{3, fuzzBurst, maxRun / 4, 0, 5, fuzzBurst, maxRun / 4, 1, 6, fuzzRestore, 0},   // ascending then descending into s-1
	{0, fuzzOffer, 0x10, 0, fuzzOffer, 0x10, 0, fuzzOffer, 0x08, 0, fuzzReOffer, 1}, // equal hashes at s = 1
}

// FuzzBottomSet decodes its input into a sequence of offer, re-offer,
// restore and prune-at-u operations and checks the set against the
// sort-and-truncate oracle, and its run invariants, after every operation.
func FuzzBottomSet(f *testing.F) {
	for _, in := range fuzzSeedInputs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := fuzzCapacities[int(data[0])%len(fuzzCapacities)]
		b := newBottomSet(capacity)
		o := &sortedSet{capacity: capacity}
		var pool []netsim.SampleEntry
		pos := 1
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		offer := func(p netsim.SampleEntry) {
			if got, want := b.Offer(p.Key, p.Hash), o.offer(p.Key, p.Hash); got != want {
				t.Fatalf("Offer(%q, %v) = %v, oracle %v", p.Key, p.Hash, got, want)
			}
		}
		newPair := func(hash float64) netsim.SampleEntry {
			p := netsim.SampleEntry{Key: fmt.Sprintf("f%d", len(pool)), Hash: hash}
			pool = append(pool, p)
			return p
		}
		for pos < len(data) {
			switch next() % fuzzOps {
			case fuzzOffer:
				offer(newPair(float64(next()<<8|next()) / 65536))
			case fuzzReOffer:
				if len(pool) > 0 {
					offer(pool[next()%len(pool)])
				}
			case fuzzBurst:
				count, order := 4*next(), next()%3
				rng := rand.New(rand.NewSource(int64(next())))
				burst := make([]netsim.SampleEntry, count)
				for i := range burst {
					burst[i] = newPair(rng.Float64())
				}
				switch order {
				case 0:
					slices.SortFunc(burst, netsim.CompareEntries)
				case 1:
					slices.SortFunc(burst, func(x, y netsim.SampleEntry) int { return netsim.CompareEntries(y, x) })
				}
				for _, p := range burst {
					offer(p)
				}
			case fuzzRestore:
				// The current entries plus some earlier pairs, in reverse: an
				// unsorted union like a MergeStates result.
				in := append(slices.Clone(o.entries), pool[:min(next(), len(pool))]...)
				slices.Reverse(in)
				b.Restore(in)
				o.restore(in)
			case fuzzPrune:
				u := float64(next()) / 256
				b.pruneFrom(u)
				o.prune(u)
			}
			sameAsOracle(t, b, o)
		}
	})
}
