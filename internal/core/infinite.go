package core

import (
	"fmt"

	"repro/internal/hashing"
	"repro/internal/netsim"
)

// InfiniteSite is the per-site half of the infinite-window protocol
// (Algorithm 1). Its primary state is one float: u_i, the site's local view
// of the global threshold, initialized to 1.
//
// One refinement beyond the paper's pseudocode: the analysis (the paragraph
// before Lemma 2) charges no communication for repeated occurrences of an
// element, but the literal Algorithm 1 re-offers a repeat whenever its hash
// is still below u_i — which is exactly the case for elements currently in
// the coordinator's sample, so an adversary repeating a sampled element
// would make the cost grow with n rather than d. To realize the analysis,
// the site remembers the keys it has already offered whose hash is still
// below its threshold and never re-offers them. Any repeat whose hash beats
// u_i must have beaten it at its first occurrence too (u_i is
// non-increasing), so the key is guaranteed to be in this memo; suppression
// therefore never loses information the coordinator does not already have.
// The memo only retains keys below the current threshold, so its expected
// size is O(s). It is the coordinator's run-list set (bottomSet) without a
// capacity, ordered by (hash, key): a lookup or insert costs O(log s) plus a
// move within one run, and a threshold reply pops the tail entries with
// hash >= u instead of walking every key. The site computes each hash itself
// with the shared function, so a key always carries the same hash and
// (hash, key) membership is key membership. NewNaiveInfiniteSite builds the
// literal-pseudocode site for the ablation experiment that quantifies the
// difference.
type InfiniteSite struct {
	id      int
	hasher  hashing.UnitHasher
	u       float64
	offered *bottomSet // keys already sent whose hash is still < u
	naive   bool       // literal Algorithm 1: no duplicate suppression
}

// NewInfiniteSite constructs the site with index id. All sites and the
// coordinator must share the same hash function, mirroring the paper's
// initialization step in which the coordinator distributes h.
func NewInfiniteSite(id int, hasher hashing.UnitHasher) *InfiniteSite {
	return &InfiniteSite{id: id, hasher: hasher, u: 1, offered: newMemo()}
}

// NewNaiveInfiniteSite constructs a site that follows Algorithm 1 to the
// letter: strictly one float of state, but repeats of currently-sampled
// elements are re-offered. Used by the duplicate-suppression ablation.
func NewNaiveInfiniteSite(id int, hasher hashing.UnitHasher) *InfiniteSite {
	return &InfiniteSite{id: id, hasher: hasher, u: 1, offered: newMemo(), naive: true}
}

// ID implements netsim.SiteNode.
func (s *InfiniteSite) ID() int { return s.id }

// Threshold returns the site's current local threshold u_i (for tests and
// invariant checks).
func (s *InfiniteSite) Threshold() float64 { return s.u }

// OnArrival implements netsim.SiteNode: if h(e) < u_i (and, unless the site
// is naive, e has not been offered before), send e and its hash to the
// coordinator.
func (s *InfiniteSite) OnArrival(key string, _ int64, out *netsim.Outbox) {
	h := s.hasher.Unit(key)
	if h >= s.u {
		return
	}
	if !s.naive && !s.offered.Offer(key, h) {
		return // already offered
	}
	out.ToCoordinator(netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: h})
}

// OnMessage implements netsim.SiteNode: the coordinator's reply refreshes
// the local threshold, and offered keys that can no longer beat it are
// forgotten.
func (s *InfiniteSite) OnMessage(msg netsim.Message, _ int64, _ *netsim.Outbox) {
	if msg.Kind != netsim.KindThreshold {
		return
	}
	s.u = msg.U
	s.offered.pruneFrom(s.u)
}

// OnSlotEnd implements netsim.SiteNode. The infinite-window site has no
// time-driven behaviour.
func (s *InfiniteSite) OnSlotEnd(int64, *netsim.Outbox) {}

// Memory implements netsim.SiteNode: the threshold plus the duplicate memo.
func (s *InfiniteSite) Memory() int { return 1 + s.offered.Len() }

// InfiniteCoordinator is the coordinator half of the infinite-window
// protocol (Algorithm 2). It keeps the sample P (the bottom-s set of hashes
// over distinct elements that reached it) and the threshold u, and answers
// every site offer with the current u.
type InfiniteCoordinator struct {
	sampleSize int
	sample     *bottomSet
}

// NewInfiniteCoordinator constructs the coordinator for sample size s.
func NewInfiniteCoordinator(sampleSize int) *InfiniteCoordinator {
	return &InfiniteCoordinator{sampleSize: sampleSize, sample: newBottomSet(sampleSize)}
}

// Threshold returns the coordinator's current threshold u.
func (c *InfiniteCoordinator) Threshold() float64 { return c.sample.Threshold() }

// OnMessage implements netsim.CoordinatorNode.
func (c *InfiniteCoordinator) OnMessage(msg netsim.Message, _ int64, out *netsim.Outbox) {
	if msg.Kind != netsim.KindOffer {
		return
	}
	c.sample.Offer(msg.Key, msg.Hash)
	// Always reply, refreshing the sender's local view of u (Algorithm 2
	// line 11 replies regardless of whether the sample changed).
	out.ToSite(msg.From, netsim.Message{Kind: netsim.KindThreshold, U: c.sample.Threshold()})
}

// OnSlotEnd implements netsim.CoordinatorNode (no time-driven behaviour).
func (c *InfiniteCoordinator) OnSlotEnd(int64, *netsim.Outbox) {}

// Offer implements Sampler: present one element with its precomputed hash.
// Slot, expiry, and copy are ignored — the infinite window has no time
// semantics and a single sketch.
func (c *InfiniteCoordinator) Offer(o Offer) bool {
	return c.sample.Offer(o.Key, o.Hash)
}

// Snapshot implements Sampler: the coordinator's whole state is its bottom-s
// sample, captured as a single-section infinite-kind State.
func (c *InfiniteCoordinator) Snapshot() State {
	return State{
		Version:    StateVersion,
		Kind:       StateInfinite,
		SampleSize: c.sampleSize,
		Sections:   []SectionState{{Entries: c.sample.Entries()}},
	}
}

// Restore implements Sampler: replace the coordinator's state with the
// snapshot. Every entry is re-offered, so restoring a merged state (see
// MergeStates) yields exactly the bottom-s of the union.
func (c *InfiniteCoordinator) Restore(st State) error {
	if err := st.validate(StateInfinite, c.sampleSize); err != nil {
		return err
	}
	if len(st.Sections) != 1 {
		return fmt.Errorf("core: infinite snapshot has %d sections, want 1", len(st.Sections))
	}
	entries := st.Sections[0].Entries
	if cand := st.Sections[0].Candidate; cand != nil {
		entries = append(append([]netsim.SampleEntry(nil), entries...), *cand)
	}
	c.sample.Restore(entries)
	return nil
}

var _ Sampler = (*InfiniteCoordinator)(nil)

// Sample implements netsim.CoordinatorNode: the current distinct sample,
// ordered by ascending hash.
func (c *InfiniteCoordinator) Sample() []netsim.SampleEntry { return c.sample.Entries() }

// SampleKeys returns just the sampled keys.
func (c *InfiniteCoordinator) SampleKeys() []string { return c.sample.Keys() }

// System bundles the k sites and the coordinator of one protocol instance,
// ready to be handed to a netsim.Runner.
type System struct {
	Sites       []netsim.SiteNode
	Coordinator netsim.CoordinatorNode
}

// Runner returns a netsim.Runner over the system's nodes with the given
// instrumentation settings.
func (sys *System) Runner(timelineEvery int, memoryEvery int64) *netsim.Runner {
	return &netsim.Runner{
		Sites:         sys.Sites,
		Coordinator:   sys.Coordinator,
		TimelineEvery: timelineEvery,
		MemoryEvery:   memoryEvery,
	}
}

// NewSystem constructs a complete infinite-window sampling system: k sites
// and one coordinator maintaining a distinct sample of size sampleSize, all
// sharing hasher.
func NewSystem(k, sampleSize int, hasher hashing.UnitHasher) *System {
	sites := make([]netsim.SiteNode, k)
	for i := range sites {
		sites[i] = NewInfiniteSite(i, hasher)
	}
	return &System{Sites: sites, Coordinator: NewInfiniteCoordinator(sampleSize)}
}

// NewNaiveSystem constructs the literal-pseudocode variant of the system
// (sites without duplicate suppression). Used by the ablation experiment
// that quantifies how much repeat traffic the memo removes.
func NewNaiveSystem(k, sampleSize int, hasher hashing.UnitHasher) *System {
	sites := make([]netsim.SiteNode, k)
	for i := range sites {
		sites[i] = NewNaiveInfiniteSite(i, hasher)
	}
	return &System{Sites: sites, Coordinator: NewInfiniteCoordinator(sampleSize)}
}
