package wire

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
)

// TestPipelineOwnerFiltersWithoutLock pins the pipelined client's arrival
// path: an arrival the site node filters out takes no lock. With mu held
// elsewhere, an ObserveHashed whose hash is at or above the site's
// threshold must still return.
func TestPipelineOwnerFiltersWithoutLock(t *testing.T) {
	hasher := hashing.NewMurmur2(3)
	srv := NewCoordinatorServer(core.NewInfiniteCoordinator(4))
	t.Cleanup(func() { _ = srv.Close() })
	node := core.NewInfiniteSite(0, hasher)
	client, err := DialSiteMem(node, srv, Options{BatchSize: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 200; i++ {
		if err := client.Observe(fmt.Sprintf("warm-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	u := node.Threshold()
	if u >= 1 {
		t.Fatal("the site never learned a threshold below 1")
	}
	key, h := "", 0.0
	for i := 0; h < u; i++ {
		key = fmt.Sprintf("cold-%d", i)
		h = hasher.Unit(key)
	}

	client.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- client.ObserveHashed(key, h, 1) }()
	select {
	case err := <-done:
		client.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		client.mu.Unlock()
		<-done
		t.Fatal("a filtered arrival waited for SiteClient.mu")
	}
}

// echoCoordinator answers every offer with one message of its own, so a
// pipelined site receives a reply for every batch it ships.
type echoCoordinator struct{ Node }

func (e *echoCoordinator) OnMessage(msg netsim.Message, slot int64, out *netsim.Outbox) {
	e.Node.OnMessage(msg, slot, out)
	out.ToSite(msg.From, netsim.Message{Kind: netsim.KindWindowSample, Key: msg.Key})
}

// ownerSite offers every arrival and keeps plain, unsynchronized state.
// inCall is set by the test around each client call; a reply applied
// outside a call, or from another goroutine (a data race under -race),
// breaks the single-owner contract.
type ownerSite struct {
	inCall   bool
	arrivals int
	replies  int
	outside  int
}

func (s *ownerSite) ID() int { return 0 }

func (s *ownerSite) OnArrival(key string, _ int64, out *netsim.Outbox) {
	s.arrivals++
	out.ToCoordinator(netsim.Message{Kind: netsim.KindOffer, Key: key, Hash: 0.5})
}

func (s *ownerSite) OnMessage(netsim.Message, int64, *netsim.Outbox) {
	if !s.inCall {
		s.outside++
	}
	s.replies++
}

func (s *ownerSite) OnSlotEnd(int64, *netsim.Outbox) {}

func (s *ownerSite) Memory() int { return 0 }

// TestPipelineOwnerAppliesReplies: while the caller offers, the coordinator
// replies to every batch, and each reply reaches the site node on the
// caller's goroutine, inside one of its calls. Run it under -race: the
// node's state is unsynchronized on purpose.
func TestPipelineOwnerAppliesReplies(t *testing.T) {
	const arrivals = 3000
	srv := NewCoordinatorServer(&echoCoordinator{Node: core.NewInfiniteCoordinator(8)})
	t.Cleanup(func() { _ = srv.Close() })
	site := &ownerSite{}
	client, err := DialSiteMem(site, srv, Options{BatchSize: 4, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arrivals; i++ {
		site.inCall = true
		err := client.Observe(fmt.Sprintf("k-%d", i), int64(i/100))
		site.inCall = false
		if err != nil {
			t.Fatal(err)
		}
	}
	site.inCall = true
	err = client.Close()
	site.inCall = false
	if err != nil {
		t.Fatal(err)
	}
	if site.outside != 0 {
		t.Fatalf("%d replies reached the site node outside the caller's calls", site.outside)
	}
	if site.arrivals != arrivals {
		t.Fatalf("site saw %d arrivals, want %d", site.arrivals, arrivals)
	}
	if got := client.MessagesReceived(); site.replies != got || got < arrivals {
		t.Fatalf("site applied %d replies, client received %d, want both at least %d", site.replies, got, arrivals)
	}
}
