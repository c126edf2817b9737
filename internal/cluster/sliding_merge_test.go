package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/sliding"
	"repro/internal/wire"
)

// TestSlidingMergeKeepsUnreportedTuple replays, step by step, the merge
// that made TestSlidingChaosMatchesReference fail about once in 300 runs
// under CPU load. Key a is the absorbed shard's window sample, key b arrives
// there later with a higher hash and is not reported, as Algorithm 3
// prescribes. Key c is the survivor's sample and hashes above both. After
// the merge, the survivor's site instance holds b in its store, but its
// candidate was still c. No slot end would report b before c expired, so
// once a expired, the merged window sample missed b, a live minimum. The
// merged instance now starts without a candidate and reports its store's
// minimum at the next slot end.
func TestSlidingMergeKeepsUnreportedTuple(t *testing.T) {
	const window = 10
	hasher := hashing.NewMurmur2(77)
	router := NewShardRouter(2, hasher)
	table := router.Table()
	pick := func(slot int, lo, hi float64) string {
		for i := 0; ; i++ {
			key := fmt.Sprintf("merge-key-%d", i)
			if h := hasher.Unit(key); table.Lookup(router.RouteHash(key)) == slot && h >= lo && h < hi {
				return key
			}
		}
	}
	a, b, c := pick(1, 0.1, 0.2), pick(1, 0.3, 0.4), pick(0, 0.5, 0.6)

	srv, err := replica.Listen("127.0.0.1:0", 2, replica.Options{
		Replicas:     1,
		SyncInterval: 20 * time.Millisecond,
		RouteHash:    router.RouteHash,
	}, func(shard, member int) wire.Node { return sliding.NewCoordinator() })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs := NewResharder(srv, table)
	client, err := DialGroups(srv.GroupAddrs(), router, func(shard int) netsim.SiteNode {
		return sliding.NewSite(0, hasher, window, uint64(shard)+1)
	}, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rs.Register(client)

	step := func(slot int64, keys ...string) {
		t.Helper()
		for _, key := range keys {
			if err := client.Observe(key, slot); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.EndSlot(slot); err != nil {
			t.Fatal(err)
		}
	}
	step(1, a)
	step(2, c, b)
	if rep := runPlanPumping(t, []*SiteClient{client}, func() (*ReshardReport, error) { return rs.MergeAt(0) }); rep == nil {
		t.Fatal("merge returned no report")
	}
	for slot := int64(3); slot <= window+1; slot++ {
		step(slot)
	}
	samples, err := srv.PrimarySamples()
	if err != nil {
		t.Fatal(err)
	}
	got := MergeWindow(window+1, samples...)
	if len(got) != 1 || got[0].Key != b {
		t.Fatalf("window sample at slot %d after a (%s) expired: %+v, want b (%s); c is %s", window+1, a, got, b, c)
	}
}
