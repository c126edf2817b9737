package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// TestChaosEventTrail is the observability acceptance run: inject the two
// interesting faults — kill a primary mid-ingest, then split the shard live —
// and require both the control-plane event log and the counters to tell the
// story: a failover promotion, a route flip at the site, every reshard
// phase, and the matching counter deltas. Registry and event ring are
// process-global, so all assertions are deltas from a baseline.
func TestChaosEventTrail(t *testing.T) {
	const s = 16
	before := obs.Default().Snapshot()
	evBase := obs.Events().Seq()

	hasher := hashing.NewMurmur2(99)
	router := NewShardRouter(1, hasher)
	srv, err := replica.Listen("127.0.0.1:0", 1, replica.Options{
		Replicas:     1,
		SyncInterval: 10 * time.Millisecond,
		RouteHash:    router.RouteHash,
	}, func(int, int) wire.Node {
		return core.NewInfiniteCoordinator(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rs := NewResharder(srv, router.Table())
	client, err := DialGroups(srv.GroupAddrs(), router, func(int) netsim.SiteNode {
		return core.NewInfiniteSite(0, hasher)
	}, wire.Options{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	rs.Register(client)

	key := func(i int) string {
		return "chaos-" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('a'+(i/260)%26))
	}
	for i := 0; i < 300; i++ {
		if err := client.Observe(key(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.SyncNow(); err != nil {
		t.Fatal(err)
	}

	// Fault 1: kill the primary. The next flush-out of offers hits the dead
	// connection and the client promotes the replica, replaying its window.
	if _, err := srv.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 400; i++ {
		if err := client.Observe(key(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}

	// Fault 2: split the shard live. The cutover completes cooperatively, so
	// ingest keeps pumping on this goroutine while the plan runs in another.
	mid, err := rs.Table().SplitPoint(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, serr := rs.Split(0, mid)
		done <- serr
	}()
	i := 400
	for {
		select {
		case serr := <-done:
			if serr != nil {
				t.Fatal(serr)
			}
		default:
			if err := client.Observe(key(i), int64(i)); err != nil {
				t.Fatal(err)
			}
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			i++
			continue
		}
		break
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	after := obs.Default().Snapshot()
	delta := func(name string) uint64 { return after.Counter(name) - before.Counter(name) }
	if d := delta("dds_cluster_failovers_total"); d != 1 {
		t.Fatalf("failovers delta = %d, want 1", d)
	}
	if d := delta("dds_cluster_route_flips_total"); d < 1 {
		t.Fatalf("route flips delta = %d, want >= 1", d)
	}
	if d := delta(`dds_reshard_plans_total{op="split"}`); d != 1 {
		t.Fatalf("split plans delta = %d, want 1", d)
	}
	if d := delta("dds_reshard_handoff_bytes_total"); d == 0 {
		t.Fatal("no handoff bytes counted")
	}
	if d := delta("dds_wire_promotions_total"); d < 1 {
		t.Fatalf("promotions delta = %d, want >= 1", d)
	}

	want := map[string]bool{
		"failover promoted":        false,
		"promotion accepted":       false,
		"route flip applied":       false,
		"reshard cutover complete": false,
		"reshard phase":            false,
	}
	for _, ev := range obs.Events().Since(evBase) {
		if _, ok := want[ev.Msg]; ok {
			want[ev.Msg] = true
		}
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("event trail missing %q", msg)
		}
	}
	if t.Failed() {
		t.Logf("event trail since baseline: %+v", obs.Events().Since(evBase))
	}
}
