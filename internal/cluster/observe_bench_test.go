package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/wire"
)

// BenchmarkSiteObserve times the arrival path a site pays for almost every
// element: a warm, pipelined cluster.SiteClient over an in-memory
// connection routing keys its site filters out (hash at or above the
// learned threshold). It asserts that this path allocates nothing.
func BenchmarkSiteObserve(b *testing.B) {
	hasher := hashing.NewMurmur2(7)
	srv := wire.NewCoordinatorServer(core.NewInfiniteCoordinator(32))
	b.Cleanup(func() { _ = srv.Close() })
	node := core.NewInfiniteSite(0, hasher)
	wc, err := wire.DialSiteMem(node, srv, wire.Options{BatchSize: 64, Window: wire.DefaultWindow})
	if err != nil {
		b.Fatal(err)
	}
	router := NewShardRouter(1, hasher)
	c := &SiteClient{
		hasher: hasher,
		table:  router.Table(),
		shards: []*shardConn{{members: []string{"mem"}, node: node, client: wc}},
	}
	b.Cleanup(func() { _ = c.Close() })
	for i := 0; i < 100_000; i++ {
		if err := c.Observe(fmt.Sprintf("warm-%d", i), 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	u := node.Threshold()
	keys := make([]string, 0, 1024)
	for i := 0; len(keys) < cap(keys); i++ {
		if k := fmt.Sprintf("192.0.2.%d->198.51.100.%d", i%251, i); hasher.Unit(k) >= u {
			keys = append(keys, k)
		}
	}
	i := 0
	observe := func() {
		if err := c.Observe(keys[i&(len(keys)-1)], 1); err != nil {
			b.Fatal(err)
		}
		i++
	}
	if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
		b.Fatalf("a filtered Observe allocates %.1f times", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		observe()
	}
}
