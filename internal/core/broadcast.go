package core

import (
	"repro/internal/hashing"
	"repro/internal/netsim"
)

// Algorithm Broadcast is the baseline the paper compares against in
// Section 5.2: instead of lazily refreshing a site's threshold only when
// that site talks to the coordinator, the coordinator broadcasts the new
// value of u to all k sites every time u changes. Sites therefore never
// send an offer that cannot change the sample, but every sample change costs
// k downward messages.

// BroadcastSite is the site half of Algorithm Broadcast. Identical to
// InfiniteSite except that its threshold is refreshed by broadcasts rather
// than by direct replies. It applies the same duplicate-suppression memo as
// InfiniteSite so that the comparison between the two algorithms isolates
// the broadcast-versus-lazy-refresh difference.
type BroadcastSite struct {
	id      int
	hasher  hashing.UnitHasher
	u       float64
	offered *bottomSet
}

// NewBroadcastSite constructs a Broadcast site with index id.
func NewBroadcastSite(id int, hasher hashing.UnitHasher) *BroadcastSite {
	return &BroadcastSite{id: id, hasher: hasher, u: 1, offered: newMemo()}
}

// ID implements netsim.SiteNode.
func (s *BroadcastSite) ID() int { return s.id }

// Threshold returns the site's current view of u.
func (s *BroadcastSite) Threshold() float64 { return s.u }

// OnArrival implements netsim.SiteNode.
func (s *BroadcastSite) OnArrival(key string, _ int64, out *netsim.Outbox) {
	h := s.hasher.Unit(key)
	if h >= s.u {
		return
	}
	if !s.offered.Offer(key, h) {
		return // already offered
	}
	out.ToCoordinator(netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: h})
}

// OnMessage implements netsim.SiteNode: broadcasts refresh the threshold.
func (s *BroadcastSite) OnMessage(msg netsim.Message, _ int64, _ *netsim.Outbox) {
	if msg.Kind != netsim.KindThreshold {
		return
	}
	s.u = msg.U
	s.offered.pruneFrom(s.u)
}

// OnSlotEnd implements netsim.SiteNode.
func (s *BroadcastSite) OnSlotEnd(int64, *netsim.Outbox) {}

// Memory implements netsim.SiteNode.
func (s *BroadcastSite) Memory() int { return 1 + s.offered.Len() }

// BroadcastCoordinator is the coordinator half of Algorithm Broadcast. On
// every offer that changes the threshold u it broadcasts the new u to every
// site; offers that leave u unchanged generate no traffic at all.
type BroadcastCoordinator struct {
	sampleSize int
	sample     *bottomSet
}

// NewBroadcastCoordinator constructs the Broadcast coordinator for sample
// size s.
func NewBroadcastCoordinator(sampleSize int) *BroadcastCoordinator {
	return &BroadcastCoordinator{sampleSize: sampleSize, sample: newBottomSet(sampleSize)}
}

// Threshold returns the coordinator's current threshold u.
func (c *BroadcastCoordinator) Threshold() float64 { return c.sample.Threshold() }

// OnMessage implements netsim.CoordinatorNode.
func (c *BroadcastCoordinator) OnMessage(msg netsim.Message, _ int64, out *netsim.Outbox) {
	if msg.Kind != netsim.KindOffer {
		return
	}
	before := c.sample.Threshold()
	c.sample.Offer(msg.Key, msg.Hash)
	after := c.sample.Threshold()
	if after != before {
		out.Broadcast(netsim.Message{Kind: netsim.KindThreshold, U: after})
	}
}

// OnSlotEnd implements netsim.CoordinatorNode.
func (c *BroadcastCoordinator) OnSlotEnd(int64, *netsim.Outbox) {}

// Sample implements netsim.CoordinatorNode.
func (c *BroadcastCoordinator) Sample() []netsim.SampleEntry { return c.sample.Entries() }

// SampleKeys returns just the sampled keys.
func (c *BroadcastCoordinator) SampleKeys() []string { return c.sample.Keys() }

// NewBroadcastSystem constructs a complete Algorithm Broadcast system with k
// sites and sample size sampleSize. Because the coordinator broadcasts, the
// system must be run on the sequential engine.
func NewBroadcastSystem(k, sampleSize int, hasher hashing.UnitHasher) *System {
	sites := make([]netsim.SiteNode, k)
	for i := range sites {
		sites[i] = NewBroadcastSite(i, hasher)
	}
	return &System{Sites: sites, Coordinator: NewBroadcastCoordinator(sampleSize)}
}
