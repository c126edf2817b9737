package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

// checkRuns asserts the run-list invariants of b: no empty run, no run
// longer than maxRun, a strictly ascending (hash, key) order across all
// runs, a total equal to Len, and no more than capacity entries.
func checkRuns(t testing.TB, b *bottomSet) {
	t.Helper()
	total := 0
	var prev *netsim.SampleEntry
	for i, run := range b.runs {
		if len(run) == 0 {
			t.Fatalf("run %d of %d is empty", i, len(b.runs))
		}
		if len(run) > maxRun {
			t.Fatalf("run %d holds %d entries, cap is %d", i, len(run), maxRun)
		}
		for j := range run {
			if prev != nil && netsim.CompareEntries(*prev, run[j]) >= 0 {
				t.Fatalf("run %d entry %d %+v is not above its predecessor %+v", i, j, run[j], *prev)
			}
			prev = &run[j]
		}
		total += len(run)
	}
	if total != b.Len() {
		t.Fatalf("runs hold %d entries, Len says %d", total, b.Len())
	}
	if b.Len() > b.capacity {
		t.Fatalf("Len %d exceeds capacity %d", b.Len(), b.capacity)
	}
}

// sortedSet is the test oracle for bottomSet: one sorted slice, truncated
// to capacity after every change. It applies the same admission rule (a
// hash at or above the threshold is refused). Entries appended to it
// without an offer are pending until the next restore sorts them in.
type sortedSet struct {
	capacity int
	entries  []netsim.SampleEntry
	pending  bool
}

func (o *sortedSet) threshold() float64 {
	if len(o.entries) < o.capacity {
		return 1
	}
	return o.entries[len(o.entries)-1].Hash
}

func (o *sortedSet) offer(key string, hash float64) bool {
	if hash >= o.threshold() {
		return false
	}
	e := netsim.SampleEntry{Key: key, Hash: hash}
	pos, found := slices.BinarySearchFunc(o.entries, e, netsim.CompareEntries)
	if found {
		return false
	}
	o.entries = slices.Insert(o.entries, pos, e)
	if len(o.entries) > o.capacity {
		o.entries = o.entries[:o.capacity]
	}
	return true
}

// restore keeps the capacity smallest distinct (hash, key) pairs.
func (o *sortedSet) restore(entries []netsim.SampleEntry) {
	var all []netsim.SampleEntry
	for _, e := range entries {
		all = append(all, netsim.SampleEntry{Key: e.Key, Hash: e.Hash})
	}
	slices.SortFunc(all, netsim.CompareEntries)
	all = slices.Compact(all)
	if len(all) > o.capacity {
		all = all[:o.capacity]
	}
	o.entries, o.pending = all, false
}

func (o *sortedSet) prune(u float64) {
	o.entries = slices.DeleteFunc(o.entries, func(e netsim.SampleEntry) bool { return e.Hash >= u })
}

// sameAsOracle asserts that b holds exactly the oracle's entries, threshold
// and length, and that its runs are well formed.
func sameAsOracle(t testing.TB, b *bottomSet, o *sortedSet) {
	t.Helper()
	checkRuns(t, b)
	got := b.Entries()
	if !slices.Equal(got, o.entries) {
		t.Fatalf("set holds %d entries, oracle %d; first difference at %d", len(got), len(o.entries), firstDiff(got, o.entries))
	}
	if b.Threshold() != o.threshold() {
		t.Fatalf("threshold %v, oracle %v", b.Threshold(), o.threshold())
	}
}

func firstDiff(a, b []netsim.SampleEntry) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// contains reports whether key is in b (a linear scan; test-only).
func contains(b *bottomSet, key string) bool { return slices.Contains(b.Keys(), key) }

func TestBottomSetEmpty(t *testing.T) {
	b := newBottomSet(3)
	if b.Threshold() != 1 {
		t.Fatalf("empty threshold = %v, want 1", b.Threshold())
	}
	if b.Len() != 0 || contains(b, "x") || len(b.Entries()) != 0 || len(b.Keys()) != 0 {
		t.Fatal("empty set not empty")
	}
}

func TestBottomSetCapacityClamp(t *testing.T) {
	b := newBottomSet(0)
	if !b.Offer("a", 0.5) || b.Len() != 1 {
		t.Fatal("capacity should clamp to 1")
	}
}

func TestBottomSetFillAndEvict(t *testing.T) {
	b := newBottomSet(2)
	if !b.Offer("a", 0.6) {
		t.Fatal("offer a rejected")
	}
	if b.Threshold() != 1 {
		t.Fatalf("threshold with 1/2 entries = %v, want 1", b.Threshold())
	}
	if !b.Offer("b", 0.4) {
		t.Fatal("offer b rejected")
	}
	if b.Threshold() != 0.6 {
		t.Fatalf("threshold when full = %v, want 0.6", b.Threshold())
	}
	// A worse hash is rejected.
	if b.Offer("c", 0.9) {
		t.Fatal("offer c (hash above threshold) accepted")
	}
	// A better hash evicts the current maximum.
	if !b.Offer("d", 0.1) {
		t.Fatal("offer d rejected")
	}
	if contains(b, "a") || !contains(b, "b") || !contains(b, "d") {
		t.Fatalf("membership after eviction: %v", b.Keys())
	}
	if b.Threshold() != 0.4 {
		t.Fatalf("threshold after eviction = %v", b.Threshold())
	}
	// Entries are ordered by hash.
	entries := b.Entries()
	if entries[0].Key != "d" || entries[1].Key != "b" {
		t.Fatalf("entries order: %v", entries)
	}
}

func TestBottomSetDuplicateKey(t *testing.T) {
	b := newBottomSet(3)
	b.Offer("a", 0.3)
	if b.Offer("a", 0.3) {
		t.Fatal("re-offer of a sampled key reported a change")
	}
	if b.Len() != 1 {
		t.Fatalf("duplicate offer changed Len to %d", b.Len())
	}
}

// boundaryCapacities are the capacities around the run length where a
// run-list bug would show: a single run, one run exactly full, a second run
// opened, several runs plus a remainder, and the large-sample size.
var boundaryCapacities = []int{1, 2, maxRun - 1, maxRun, maxRun + 1, 4*maxRun + 3, 16384}

// TestBottomSetMatchesBruteForce offers random, ascending and descending
// streams with repeats into sets of every boundary capacity and compares the
// set with the sort-and-truncate oracle (see checkEvery for how often) and
// at the end.
func TestBottomSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		s := 1 + rng.Intn(20)
		b := newBottomSet(s)
		o := &sortedSet{capacity: s}
		hashes := map[string]float64{}
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(200))
			hash, seen := hashes[key]
			if !seen {
				hash = rng.Float64()
				hashes[key] = hash
			}
			// Re-offering with the same hash must be a no-op.
			if got, want := b.Offer(key, hash), o.offer(key, hash); got != want {
				t.Fatalf("trial %d: Offer(%q) = %v, oracle %v", trial, key, got, want)
			}
			sameAsOracle(t, b, o)
		}
	}

	for _, capacity := range boundaryCapacities {
		for _, order := range []string{"random", "ascending", "descending"} {
			t.Run(fmt.Sprintf("s=%d/%s", capacity, order), func(t *testing.T) {
				pairs := distinctPairs(rng, 3*capacity+50)
				switch order {
				case "ascending":
					slices.SortFunc(pairs, netsim.CompareEntries)
				case "descending":
					slices.SortFunc(pairs, func(a, b netsim.SampleEntry) int { return netsim.CompareEntries(b, a) })
				}
				every := checkEvery(capacity)
				b := newBottomSet(capacity)
				o := &sortedSet{capacity: capacity}
				for i, p := range pairs {
					offerChecked(t, b, o, p, i%every == 0)
					// Repeated keys: re-offer an earlier pair now and then.
					if rng.Intn(4) == 0 {
						q := pairs[rng.Intn(i+1)]
						if b.Offer(q.Key, q.Hash) {
							t.Fatalf("re-offer of %q changed the set", q.Key)
						}
					}
				}
				o.restore(o.entries)
				sameAsOracle(t, b, o)
			})
		}
	}
}

// offerChecked offers p to b and to the oracle and, when check is set,
// compares Offer's result and the whole set with the oracle's. Unchecked
// offers are only queued on the oracle and settle at its next restore,
// which is exact for distinct hashes and keeps the large sets fast.
func offerChecked(t testing.TB, b *bottomSet, o *sortedSet, p netsim.SampleEntry, check bool) {
	t.Helper()
	got := b.Offer(p.Key, p.Hash)
	if !check {
		o.entries, o.pending = append(o.entries, p), true
		return
	}
	if o.pending {
		o.restore(o.entries)
	}
	if want := o.offer(p.Key, p.Hash); got != want {
		t.Fatalf("Offer(%q, %v) = %v, oracle %v", p.Key, p.Hash, got, want)
	}
	sameAsOracle(t, b, o)
}

// checkEvery returns how often, in offers, a set of this capacity is
// compared with the oracle and its runs checked: after every offer while the
// set fits in about one run, then every (s/maxRun)² offers — every 16th at
// 4·maxRun+3, every 4096th at 16384 — so the large sets stay fast under
// -race.
func checkEvery(capacity int) int {
	runs := capacity / maxRun
	return max(1, runs*runs)
}

// distinctPairs returns n (key, hash) pairs with distinct keys and hashes,
// in random order.
func distinctPairs(rng *rand.Rand, n int) []netsim.SampleEntry {
	pairs := make([]netsim.SampleEntry, n)
	seen := map[float64]bool{}
	for i := range pairs {
		h := rng.Float64()
		for seen[h] {
			h = rng.Float64()
		}
		seen[h] = true
		pairs[i] = netsim.SampleEntry{Key: fmt.Sprintf("p%d", i), Hash: h}
	}
	return pairs
}

// TestBottomSetEqualHashesOrderByKey: distinct keys sharing one hash are
// kept in key order (the order cluster.Merge gives them), whatever order
// they arrive in, and a tie with the threshold is refused as before.
func TestBottomSetEqualHashesOrderByKey(t *testing.T) {
	b := newBottomSet(4)
	for _, k := range []string{"m", "z", "a", "q"} {
		if !b.Offer(k, 0.5) {
			t.Fatalf("offer %q refused", k)
		}
	}
	if got := b.Keys(); !slices.Equal(got, []string{"a", "m", "q", "z"}) {
		t.Fatalf("equal-hash keys = %v, want key order", got)
	}
	if b.Offer("0", 0.5) {
		t.Fatal("a hash equal to the threshold was admitted")
	}
	if !b.Offer("b", 0.25) || b.Keys()[0] != "b" || contains(b, "z") {
		t.Fatalf("lower hash did not evict the (hash, key) maximum: %v", b.Keys())
	}

	// Across a run boundary: maxRun+3 keys on one hash.
	big := newBottomSet(maxRun + 3)
	o := &sortedSet{capacity: maxRun + 3}
	for i := maxRun + 2; i >= 0; i-- {
		k := fmt.Sprintf("k%04d", i)
		big.Offer(k, 0.5)
		o.offer(k, 0.5)
	}
	sameAsOracle(t, big, o)
}

// TestBottomSetRestoreFromMergeStates restores sets of every boundary
// capacity from the union of two snapshots (a reshard handoff), overlapping
// ones included, compares them with the oracle, then keeps offering to the
// restored set: inserts, splits and evictions on runs that Restore built.
func TestBottomSetRestoreFromMergeStates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, capacity := range boundaryCapacities {
		t.Run(fmt.Sprintf("s=%d", capacity), func(t *testing.T) {
			pairs := distinctPairs(rng, 3*capacity+10)
			left, right := NewInfiniteCoordinator(capacity), NewInfiniteCoordinator(capacity)
			for i, p := range pairs[:2*capacity] {
				o := Offer{Key: p.Key, Hash: p.Hash}
				switch i % 3 {
				case 0:
					left.Offer(o)
				case 1:
					right.Offer(o)
				default: // replicated on both sides
					left.Offer(o)
					right.Offer(o)
				}
			}
			merged, err := MergeStates(left.Snapshot(), right.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			b := newBottomSet(capacity)
			b.Restore(merged.Sections[0].Entries)
			o := &sortedSet{capacity: capacity}
			o.restore(merged.Sections[0].Entries)
			sameAsOracle(t, b, o)

			// Restoring the set's own entries is a no-op.
			b.Restore(b.Entries())
			sameAsOracle(t, b, o)

			for i, p := range pairs[2*capacity:] {
				offerChecked(t, b, o, p, i%checkEvery(capacity) == 0)
			}
			o.restore(o.entries)
			sameAsOracle(t, b, o)
		})
	}
}

// TestBottomSetPruneFrom trims a memo at falling thresholds, including
// cuts that land exactly on run boundaries and empty the set.
func TestBottomSetPruneFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := newMemo()
	o := &sortedSet{capacity: m.capacity}
	pairs := distinctPairs(rng, 5*maxRun+7)
	for _, p := range pairs {
		m.Offer(p.Key, p.Hash)
		o.offer(p.Key, p.Hash)
	}
	sameAsOracle(t, m, o)
	for m.Len() > 0 {
		// Cut at an entry's own hash: that entry and all above it go.
		entries := m.Entries()
		u := entries[len(entries)-1-rng.Intn(min(len(entries), 2*maxRun))].Hash
		m.pruneFrom(u)
		o.prune(u)
		sameAsOracle(t, m, o)
	}
	m.pruneFrom(0)
	sameAsOracle(t, m, o)
}

func TestBottomSetQuickThresholdIsMaxOfSample(t *testing.T) {
	f := func(raw []float64) bool {
		b := newBottomSet(5)
		for i, v := range raw {
			h := v - float64(int(v)) // fractional part, may be negative
			if h < 0 {
				h = -h
			}
			b.Offer(fmt.Sprintf("key-%d", i), h)
		}
		entries := b.Entries()
		if len(entries) < 5 {
			return b.Threshold() == 1
		}
		return b.Threshold() == entries[len(entries)-1].Hash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
