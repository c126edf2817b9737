package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hashing"
	"repro/internal/netsim"
)

// mapMemoSite is the duplicate-suppressing site as InfiniteSite and
// BroadcastSite were first written: the memo is a key → hash map, and every
// threshold reply walks the whole map to forget keys whose hash is no
// longer below u. It is the oracle the run-list memo must match.
type mapMemoSite struct {
	hasher  hashing.UnitHasher
	u       float64
	offered map[string]float64
}

func newMapMemoSite(hasher hashing.UnitHasher) *mapMemoSite {
	return &mapMemoSite{hasher: hasher, u: 1, offered: map[string]float64{}}
}

func (s *mapMemoSite) OnArrival(key string, _ int64, out *netsim.Outbox) {
	h := s.hasher.Unit(key)
	if h >= s.u {
		return
	}
	if _, already := s.offered[key]; already {
		return
	}
	s.offered[key] = h
	out.ToCoordinator(netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: h})
}

func (s *mapMemoSite) OnMessage(msg netsim.Message, _ int64, _ *netsim.Outbox) {
	if msg.Kind != netsim.KindThreshold {
		return
	}
	s.u = msg.U
	for key, h := range s.offered {
		if h >= s.u {
			delete(s.offered, key)
		}
	}
}

func (s *mapMemoSite) Memory() int { return 1 + len(s.offered) }

// memoOf returns the run-list memo of an InfiniteSite or BroadcastSite.
func memoOf(site netsim.SiteNode) *bottomSet {
	switch s := site.(type) {
	case *InfiniteSite:
		return s.offered
	case *BroadcastSite:
		return s.offered
	}
	panic(fmt.Sprintf("no memo in %T", site))
}

// maxEntry returns the largest entry of a non-empty set.
func maxEntry(b *bottomSet) netsim.SampleEntry {
	last := b.runs[len(b.runs)-1]
	return last[len(last)-1]
}

// sameMemo asserts that the run-list memo holds exactly the oracle's keys
// and hashes, i.e. the offered keys with hash < u.
func sameMemo(t *testing.T, memo *bottomSet, oracle *mapMemoSite) {
	t.Helper()
	checkRuns(t, memo)
	if memo.Len() != len(oracle.offered) {
		t.Fatalf("memo holds %d keys, map memo %d", memo.Len(), len(oracle.offered))
	}
	for _, e := range memo.Entries() {
		if h, ok := oracle.offered[e.Key]; !ok || h != e.Hash || e.Hash >= oracle.u {
			t.Fatalf("memo entry %+v: map memo has (%v, %v), u = %v", e, h, ok, oracle.u)
		}
	}
}

// TestSiteMemoMatchesMapWalk drives the run-list sites and the map-walk
// oracle through the same arrivals and the same threshold replies, for both
// protocols, uniform and all-distinct streams, and s = 32 and s = 16384.
// The outboxes must be identical after every arrival. After every reply the
// memo must hold exactly the offered keys with hash < u: at s = 32 this is
// compared entry by entry; at s = 16384 each reply checks the length and that
// the memo's largest hash is below u, and the entry-by-entry comparison runs
// every 1024 replies and at the end. The cheap check is exact too: the memo
// only gains a key when the site offers it (the outboxes agree), so a memo
// whose entries all lie below u and whose length equals the oracle's is the
// oracle's set.
func TestSiteMemoMatchesMapWalk(t *testing.T) {
	const k = 3
	hasher := hashing.NewMurmur2(0x5eed)
	for _, s := range []int{32, 16384} {
		for _, streamKind := range []string{"uniform", "distinct"} {
			for _, proto := range []string{"infinite", "broadcast"} {
				t.Run(fmt.Sprintf("s=%d/%s/%s", s, streamKind, proto), func(t *testing.T) {
					if s > 32 && testing.Short() {
						t.Skip("the map-walk oracle walks its whole memo on every reply; s = 16384 runs without -short")
					}
					// Past the fill at s, so that u falls and replies prune.
					n := 20000
					if s > 32 {
						n = 2 * s
					}
					rng := rand.New(rand.NewSource(int64(s) + int64(len(streamKind)+len(proto))))
					keys := make([]string, n)
					for i := range keys {
						if streamKind == "uniform" {
							keys[i] = fmt.Sprintf("u%d", rng.Intn(n))
						} else {
							keys[i] = fmt.Sprintf("d%d", i)
						}
					}
					var sys *System
					if proto == "infinite" {
						sys = NewSystem(k, s, hasher)
					} else {
						sys = NewBroadcastSystem(k, s, hasher)
					}
					oracles := make([]*mapMemoSite, k)
					for i := range oracles {
						oracles[i] = newMapMemoSite(hasher)
					}
					full := func(reply int) bool { return s <= 32 || reply%1024 == 0 }
					replies := 0
					deliver := func(site int, msg netsim.Message) {
						sys.Sites[site].OnMessage(msg, 0, &netsim.Outbox{})
						oracles[site].OnMessage(msg, 0, nil)
						memo := memoOf(sys.Sites[site])
						if full(replies) {
							sameMemo(t, memo, oracles[site])
						} else if memo.Len() != len(oracles[site].offered) || (memo.Len() > 0 && maxEntry(memo).Hash >= msg.U) {
							t.Fatalf("reply %d to site %d: memo %d keys, map memo %d", replies, site, memo.Len(), len(oracles[site].offered))
						}
						if got, want := sys.Sites[site].Memory(), oracles[site].Memory(); got != want {
							t.Fatalf("site %d Memory %d, map memo %d", site, got, want)
						}
						replies++
					}
					for i, key := range keys {
						site := rng.Intn(k)
						gotOut, wantOut := &netsim.Outbox{}, &netsim.Outbox{}
						sys.Sites[site].OnArrival(key, 0, gotOut)
						oracles[site].OnArrival(key, 0, wantOut)
						if !slices.Equal(gotOut.Envelopes(), wantOut.Envelopes()) {
							t.Fatalf("arrival %d (%q at site %d): outbox %+v, map memo %+v", i, key, site, gotOut.Envelopes(), wantOut.Envelopes())
						}
						for _, env := range gotOut.Drain() {
							msg := env.Msg
							msg.From = site
							coordOut := &netsim.Outbox{}
							sys.Coordinator.OnMessage(msg, 0, coordOut)
							for _, reply := range coordOut.Drain() {
								if reply.Broadcast {
									for to := 0; to < k; to++ {
										deliver(to, reply.Msg)
									}
								} else {
									deliver(reply.To, reply.Msg)
								}
							}
						}
					}
					for site := range oracles {
						sameMemo(t, memoOf(sys.Sites[site]), oracles[site])
					}
					if replies == 0 {
						t.Fatal("no threshold replies were delivered")
					}
				})
			}
		}
	}
}
