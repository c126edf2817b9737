package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/wire"
)

// countingHasher counts every digest it computes, through Hash or Unit.
type countingHasher struct {
	*hashing.Hasher
	digests atomic.Int64
}

func (h *countingHasher) Hash(key string) uint64 {
	h.digests.Add(1)
	return h.Hasher.Hash(key)
}

func (h *countingHasher) Unit(key string) float64 {
	h.digests.Add(1)
	return h.Hasher.Unit(key)
}

// TestObserveHashesOncePerArrival: routing an arrival and filtering it at
// the shard's site share one digest, on the infinite-window and the
// sliding-window path alike. The router and every site hash through the
// same counting hasher, and each Observe must move the count by exactly one.
func TestObserveHashesOncePerArrival(t *testing.T) {
	const shards = 2
	for _, tc := range []struct {
		name     string
		newCoord func(int) wire.Node
		newSite  func(h hashing.UnitHasher) func(int) netsim.SiteNode
		endSlots bool
	}{
		{
			name:     "infinite",
			newCoord: func(int) wire.Node { return core.NewInfiniteCoordinator(8) },
			newSite: func(h hashing.UnitHasher) func(int) netsim.SiteNode {
				return func(int) netsim.SiteNode { return core.NewInfiniteSite(0, h) }
			},
		},
		{
			name:     "sliding",
			newCoord: func(int) wire.Node { return sliding.NewCoordinator() },
			newSite: func(h hashing.UnitHasher) func(int) netsim.SiteNode {
				return func(shard int) netsim.SiteNode { return sliding.NewSite(0, h, 4, uint64(shard)+1) }
			},
			endSlots: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := Listen("127.0.0.1:0", shards, tc.newCoord)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			hasher := &countingHasher{Hasher: hashing.NewMurmur2(5)}
			client, err := DialSites(srv.Addrs(), NewShardRouter(shards, hasher), tc.newSite(hasher), wire.Options{BatchSize: 4, Window: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			offers := 0
			for slot := int64(1); slot <= 20; slot++ {
				for i := 0; i < 50; i++ {
					before := hasher.digests.Load()
					if err := client.Observe(fmt.Sprintf("key-%d", (int(slot)*37+i)%300), slot); err != nil {
						t.Fatal(err)
					}
					if n := hasher.digests.Load() - before; n != 1 {
						t.Fatalf("Observe at slot %d computed %d digests, want 1", slot, n)
					}
					offers++
				}
				if tc.endSlots {
					if err := client.EndSlot(slot); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := hasher.digests.Load(); got != int64(offers) {
				t.Fatalf("%d digests for %d offers", got, offers)
			}
		})
	}
}
