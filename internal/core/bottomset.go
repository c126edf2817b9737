package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/netsim"
)

// maxRun caps the length of one run of a bottomSet. It bounds the memmove of
// an insert (at most maxRun entries) while keeping the run list short (about
// s/maxRun to 2s/maxRun runs for a full set of capacity s).
const maxRun = 256

// bottomSet maintains the s entries with the smallest hash values among the
// distinct keys offered to it, together with the threshold u: the largest
// hash in the set once it is full, or 1 before that. It is the coordinator's
// sample P of Algorithm 2, backs the centralized reference sampler, and,
// with no capacity limit, is the sites' duplicate memo.
//
// The entries are kept as an ordered list of short sorted runs: every run
// is non-empty, holds at most maxRun entries, and the concatenation of the
// runs is ascending in (hash, key). With s entries this costs:
//   - Offer: a threshold compare, then two binary searches (over the runs'
//     last entries, then inside one run) and a move of at most one run;
//   - Threshold and the eviction of the maximum: the last run's tail;
//   - Entries and Keys: an O(s) concatenation, already in order.
//
// Membership is decided by the (hash, key) pair; there is no key index. This
// is the same set as a key index would give because every party hashes with
// the one shared function the paper's initialization step distributes, so a
// key always arrives with the same hash. Callers must keep that
// precondition: offering one key under two different hashes stores it twice.
type bottomSet struct {
	capacity int
	runs     [][]netsim.SampleEntry
	n        int
}

func newBottomSet(capacity int) *bottomSet {
	if capacity < 1 {
		capacity = 1
	}
	return &bottomSet{capacity: capacity}
}

// newMemo returns a bottomSet with no capacity limit, never evicting: a
// site's duplicate memo, which pruneFrom trims as the site's threshold falls.
func newMemo() *bottomSet { return &bottomSet{capacity: math.MaxInt} }

// below reports whether a precedes b in (hash, key) order.
func below(a, b netsim.SampleEntry) bool {
	return a.Hash < b.Hash || (a.Hash == b.Hash && a.Key < b.Key)
}

// Threshold returns u: 1 while the set holds fewer than capacity entries,
// afterwards the largest stored hash.
func (b *bottomSet) Threshold() float64 {
	if b.n < b.capacity {
		return 1
	}
	last := b.runs[len(b.runs)-1]
	return last[len(last)-1].Hash
}

// Len returns the number of stored entries.
func (b *bottomSet) Len() int { return b.n }

// Offer presents a (key, hash) pair. It returns true when the offer changed
// the sample (the pair was inserted, possibly evicting the current maximum).
// Offers of pairs already in the sample and offers whose hash does not beat
// the threshold leave the sample unchanged.
func (b *bottomSet) Offer(key string, hash float64) bool {
	if hash >= b.Threshold() {
		return false
	}
	e := netsim.SampleEntry{Key: key, Hash: hash}
	// r: the first run whose last entry is not below e.
	r, hi := 0, len(b.runs)
	for r < hi {
		m := int(uint(r+hi) >> 1)
		if run := b.runs[m]; below(run[len(run)-1], e) {
			r = m + 1
		} else {
			hi = m
		}
	}
	switch {
	case r == len(b.runs):
		// e is above every stored entry. Filling the last run, or opening a
		// new one, rather than splitting keeps an ascending Offer sequence
		// packed in full runs.
		if r == 0 || len(b.runs[r-1]) == maxRun {
			b.runs = append(b.runs, make([]netsim.SampleEntry, 0, maxRun))
		}
		last := len(b.runs) - 1
		b.runs[last] = append(b.runs[last], e)
	default:
		run := b.runs[r]
		// pos: the first entry of the run not below e.
		pos, hi := 0, len(run)
		for pos < hi {
			m := int(uint(pos+hi) >> 1)
			if below(run[m], e) {
				pos = m + 1
			} else {
				hi = m
			}
		}
		if run[pos] == e {
			return false // already a member
		}
		if len(run) == maxRun {
			// Split the full run in two and insert into the half that
			// covers e.
			half := maxRun / 2
			right := append(make([]netsim.SampleEntry, 0, maxRun), run[half:]...)
			clear(run[half:])
			run = run[:half]
			b.runs[r] = run
			b.runs = slices.Insert(b.runs, r+1, right)
			if pos > half {
				r, run, pos = r+1, right, pos-half
			}
		}
		b.runs[r] = slices.Insert(run, pos, e)
	}
	b.n++
	if b.n > b.capacity {
		b.popMax()
	}
	return true
}

// popMax removes the largest entry.
func (b *bottomSet) popMax() {
	i := len(b.runs) - 1
	last := b.runs[i]
	last[len(last)-1] = netsim.SampleEntry{}
	b.n--
	if len(last) > 1 {
		b.runs[i] = last[:len(last)-1]
		return
	}
	b.runs[i] = nil
	b.runs = b.runs[:i]
}

// pruneFrom removes every entry whose hash is at least u: the sites' memo
// refresh when a threshold reply lowers u_i. It pops whole tail runs and
// cuts one, so it costs O(log s) plus the entries removed.
func (b *bottomSet) pruneFrom(u float64) {
	for len(b.runs) > 0 {
		i := len(b.runs) - 1
		last := b.runs[i]
		keep := sort.Search(len(last), func(j int) bool { return last[j].Hash >= u })
		clear(last[keep:])
		b.n -= len(last) - keep
		if keep > 0 {
			b.runs[i] = last[:keep]
			return
		}
		b.runs[i] = nil
		b.runs = b.runs[:i]
	}
}

// Restore replaces the set's contents with the given entries: the capacity
// smallest distinct (hash, key) pairs survive, and Expiry is dropped. It is
// the replication primitive: a replica applying the primary's sample frame
// ends up with the identical bottom-s state, and re-applying the same frame
// is a no-op. Input already in ascending order (any Entries result) is only
// copied; anything else, such as a MergeStates union, is sorted.
func (b *bottomSet) Restore(entries []netsim.SampleEntry) {
	sorted := make([]netsim.SampleEntry, len(entries))
	for i, e := range entries {
		sorted[i] = netsim.SampleEntry{Key: e.Key, Hash: e.Hash}
	}
	if !slices.IsSortedFunc(sorted, netsim.CompareEntries) {
		slices.SortFunc(sorted, netsim.CompareEntries)
	}
	sorted = slices.Compact(sorted)
	if len(sorted) > b.capacity {
		clear(sorted[b.capacity:])
		sorted = sorted[:b.capacity]
	}
	clear(b.runs)
	b.runs = b.runs[:0]
	for lo := 0; lo < len(sorted); lo += maxRun {
		hi := min(lo+maxRun, len(sorted))
		b.runs = append(b.runs, sorted[lo:hi:hi])
	}
	b.n = len(sorted)
}

// Entries returns a copy of the sample ordered by ascending (hash, key).
func (b *bottomSet) Entries() []netsim.SampleEntry {
	if b.n == 0 {
		return nil
	}
	out := make([]netsim.SampleEntry, 0, b.n)
	for _, run := range b.runs {
		out = append(out, run...)
	}
	return out
}

// Keys returns the sampled keys ordered by ascending (hash, key).
func (b *bottomSet) Keys() []string {
	keys := make([]string, 0, b.n)
	for _, run := range b.runs {
		for _, e := range run {
			keys = append(keys, e.Key)
		}
	}
	return keys
}
