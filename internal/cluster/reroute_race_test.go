package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/wire"
)

// gatedNode is an infinite-window coordinator whose offers block until gate
// is closed: a shard whose replies a test holds back at will.
type gatedNode struct {
	*core.InfiniteCoordinator
	gate chan struct{}
}

func (g *gatedNode) OnMessage(msg netsim.Message, slot int64, out *netsim.Outbox) {
	<-g.gate
	g.InfiniteCoordinator.OnMessage(msg, slot, out)
}

// TestFanOutReroutesOnCallingGoroutine is the regression test for the
// stray-key re-routing race. fanOut flushes every shard on its own
// goroutine, and each shardConn may be touched only by that goroutine. A
// shard fenced by a stale route must therefore not adopt the new table or
// replay its refused offers to their new owner by itself: the owner's
// goroutine may be inside its own flush at that moment.
//
// The test forces exactly that interleaving. Shard A has given the range
// [q, 2^63) to shard B in a reshard the site has not applied, and pushed the
// new table on the site's connection. Shard B holds back its replies. The
// site buffers strays for A and keys for B, then flushes: A's goroutine is
// fenced while B's goroutine waits for its reply. B's replies are released
// only after A's fence has fired. The strays must end up on B and the merged
// sample must match the reference; under -race, any touch of B's connection
// from A's goroutine is reported.
func TestFanOutReroutesOnCallingGoroutine(t *testing.T) {
	const (
		s = 16
		q = uint64(1) << 62
	)
	hasher := hashing.NewMurmur2(4242)
	router := NewShardRouter(2, hasher) // slot 0 owns [0, 2^63), slot 1 the rest

	listen := func(node wire.Node) (*wire.CoordinatorServer, string) {
		srv := wire.NewCoordinatorServer(node)
		srv.SetRouteHash(router.RouteHash)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv, addr
	}
	srvA, addrA := listen(core.NewInfiniteCoordinator(s))
	gate := make(chan struct{})
	srvB, addrB := listen(&gatedNode{InfiniteCoordinator: core.NewInfiniteCoordinator(s), gate: gate})
	groups := [][]string{{addrA}, {addrB}}

	client, err := DialGroups(groups, router, func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, hasher)
	}, wire.Options{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	// The reshard the site missed: A keeps [0, q) and fences the rest, B
	// takes [q, 2^64).
	next := RangeTable{Version: router.Table().Version + 1, Bounds: []uint64{0, q}, Slots: []int{0, 1}}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	sc := wire.NewMemSync(srvA)
	defer sc.Close()
	if _, err := sc.RouteUpdate(next.Version, 0, q); err != nil {
		t.Fatal(err)
	}
	srvA.RestrictRoute()

	// Keys the site still routes to A although B owns them now (strays), and
	// keys for B. Both stay in the pending buffers until the flush.
	var strays, keysB []string
	for i := 0; len(strays) < 3 || len(keysB) < 3; i++ {
		key := fmt.Sprintf("race-%d", i)
		switch rh := router.RouteHash(key); {
		case rh >= q && rh < 1<<63 && len(strays) < 3:
			strays = append(strays, key)
		case rh >= 1<<63 && len(keysB) < 3:
			keysB = append(keysB, key)
		}
	}
	oracle := core.NewReference(s, hasher)
	for _, key := range append(append([]string(nil), strays...), keysB...) {
		oracle.Observe(key)
		if err := client.Observe(key, 0); err != nil {
			t.Fatal(err)
		}
	}

	// A pushes the new table; its connection writes the push while idle, so
	// the site reads it just before the fence NACK on its next reply. (The
	// push reaches connections whose hello the server has processed; until
	// then it reaches none and is simply retried.)
	counter := func(name string) uint64 {
		snap := obs.Default().Snapshot()
		return snap.Counter(name)
	}
	pushesWritten := `dds_wire_frames_encoded_total{kind="route-push"}`
	pushesBefore := counter(pushesWritten)
	deadline := time.Now().Add(10 * time.Second)
	for srvA.PushRoute(routePushFrame(next, groups)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("route push never reached the site connection")
		}
		time.Sleep(time.Millisecond)
	}
	for counter(pushesWritten) == pushesBefore {
		if time.Now().After(deadline) {
			t.Fatal("route push was never written to the site connection")
		}
		time.Sleep(time.Millisecond)
	}

	// Release B's replies once A's fence has fired, plus a delay that keeps
	// B's flush in progress while A's goroutine handles the fence (the
	// interleaving under test; the outcome does not depend on its length),
	// or after a generous deadline.
	fences := func() uint64 { return counter(`dds_wire_fence_rejections_total{fence="strict-route"}`) }
	fencesBefore := fences()
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for fences() == fencesBefore && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(100 * time.Millisecond)
		close(gate)
	}()

	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if fences() == fencesBefore {
		t.Fatal("shard A never fenced the strays; the test did not force the interleaving")
	}
	if v := client.RouteVersion(); v != next.Version {
		t.Fatalf("client route version = %d, want %d (pushed table adopted)", v, next.Version)
	}
	got := Merge(s, srvA.Sample(), srvB.Sample())
	want := oracle.Sample()
	if len(got) != len(want) {
		t.Fatalf("merged sample has %d entries, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Hash != want[i].Hash {
			t.Fatalf("merged sample[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, e := range srvA.Sample() {
		if rh := router.RouteHash(e.Key); rh >= q {
			t.Fatalf("shard A holds %q outside its range [0, %#x)", e.Key, q)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}
