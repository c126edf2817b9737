package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/faultnet"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestPartitionChaosSelfHeals is the self-healing control plane's acceptance
// test: a replicated, lease-fenced cluster ingests a skewed (Zipf) stream
// through faulty replication links — seeded drops and delays throughout,
// plus one scripted full sync-plane partition — takes a primary kill and a
// live shard split, and converges with ZERO manual intervention: no client
// is restarted, no error ever reaches the test's ingest loops, and the
// merged sample stays byte-identical to the centralized reference after
// every chunk.
//
// The chunk script exercises each healing path in turn:
//
//	chunk 1: the sync plane partitions for longer than a lease, so every
//	         primary fences its own ingest (ErrLeaseLapsed); clients back
//	         off with jitter and retry until the partition heals and the
//	         quorum renewals resume — never promoting, because the retry
//	         budget outlasts the outage.
//	chunk 2: a quiesced primary kill; clients promote the replica and
//	         replay their unacked windows (the classic failover path).
//	chunk 3: a live split concurrent with ingest; cutover pushes the new
//	         table to every connected site over the push channel.
//
// Everything is deterministic in the seed (fault schedule included), so a
// failure names a reproducible script. The final assertions require the new
// control-plane instruments to have moved: a lease lapse was seen and
// healed, route frames were pushed, retries were spent.
func TestPartitionChaosSelfHeals(t *testing.T) {
	const (
		k      = 3
		s      = 24
		seed   = 52015
		chunks = 4
		shards = 2
		lease  = 100 * time.Millisecond
		syncIv = 20 * time.Millisecond
	)
	before := obs.Default().Snapshot()
	evBase := obs.Events().Seq()
	// The whole run is traced at 100%: the final assertions require at least
	// one recorded trace linking all three planes, proving context propagation
	// survives the same chaos the data plane does.
	obs.SetTraceSampleRate(1)
	defer obs.SetTraceSampleRate(0)

	hasher := hashing.NewMurmur2(seed)
	all := dataset.OC48(0.0002, seed).Generate() // Zipf 1.2: the skewed ingest
	arrivals := distribute.Apply(all, distribute.NewDominate(k, 0.6, seed))
	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	chunkOf := func(site, chunk int) []stream.Arrival {
		mine := perSite[site]
		return mine[chunk*len(mine)/chunks : (chunk+1)*len(mine)/chunks]
	}

	// Every sync connection the replication plane dials — state pushes,
	// quorum probes, lease renewals — runs through the fault injector.
	inj := faultnet.NewInjector(seed, faultnet.Scenario{
		Drop:     0.05,
		Delay:    0.2,
		MaxDelay: 2 * time.Millisecond,
	})

	router := NewShardRouter(shards, hasher)
	srv, err := replica.Listen("127.0.0.1:0", shards, replica.Options{
		Replicas:     1,
		SyncInterval: syncIv,
		Lease:        lease,
		RouteHash:    router.RouteHash,
		SyncWrap:     inj.Wrap,
	}, func(int, int) wire.Node {
		return core.NewInfiniteCoordinator(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs := NewResharder(srv, router.Table())

	// The retry budget must outlast the scripted partition: ~12 backoffs
	// from 2ms sum past a second, the outage lasts ~a quarter of that.
	clientOpts := wire.Options{
		BatchSize: 16,
		RetryMax:  12,
		RetryBase: 2 * time.Millisecond,
	}
	clients := make([]*SiteClient, k)
	for site := 0; site < k; site++ {
		id := site
		clients[site], err = DialGroups(srv.GroupAddrs(), router, func(int) netsim.SiteNode {
			return core.NewInfiniteSite(id, hasher)
		}, clientOpts)
		if err != nil {
			t.Fatal(err)
		}
	}
	rs.Register(clients...)

	oracle := core.NewReference(s, hasher)
	ingestChunk := func(chunk int, concurrentPlan func() error) {
		t.Helper()
		opDone := make(chan struct{})
		errs := make(chan error, k+1)
		var wg sync.WaitGroup
		for site := 0; site < k; site++ {
			wg.Add(1)
			go func(site int) {
				defer wg.Done()
				for _, a := range chunkOf(site, chunk) {
					if err := clients[site].Observe(a.Key, a.Slot); err != nil {
						errs <- fmt.Errorf("site %d: %w", site, err)
						return
					}
				}
				if err := clients[site].Flush(); err != nil {
					errs <- fmt.Errorf("site %d: flush: %w", site, err)
					return
				}
				for {
					select {
					case <-opDone:
						errs <- clients[site].ApplyRouteUpdates()
						return
					default:
						if err := clients[site].ApplyRouteUpdates(); err != nil {
							errs <- fmt.Errorf("site %d: apply: %w", site, err)
							return
						}
						time.Sleep(500 * time.Microsecond)
					}
				}
			}(site)
		}
		if concurrentPlan != nil {
			if err := concurrentPlan(); err != nil {
				errs <- err
			}
		}
		close(opDone)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
		}
	}
	checkChunk := func(chunk int) {
		t.Helper()
		for site := 0; site < k; site++ {
			oracle.ObserveAll(stream.Keys(arrivalElements(chunkOf(site, chunk))))
		}
		want, err := json.Marshal(oracle.Sample())
		if err != nil {
			t.Fatal(err)
		}
		samples, err := srv.PrimarySamples()
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		got, err := json.Marshal(Merge(s, samples...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: merged sample diverged from reference\n got: %s\nwant: %s", chunk, got, want)
		}
	}

	// The sync plane is faulty by construction, so a forced round can lose
	// its state-frame to the injector even after push's one redial — but
	// SyncNow retries transient losses internally now (bounded, typed
	// exhaustion), so quiescing is a single call with no caller-side loop.
	syncNow := func(label string) {
		t.Helper()
		if err := srv.SyncNow(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	// Chunk 0: clean ingest, then one forced sync round so every group's
	// quorum renewal lands and arms its primary's lease before the outage
	// (ingest can outrun the first ticker round).
	ingestChunk(0, nil)
	checkChunk(0)
	syncNow("arming sync")

	// Chunk 1: sever the whole sync plane for longer than a lease, so every
	// primary's renewals stop and its lease runs down BEFORE the chunk's
	// offers arrive — they hit the fence, back off, and succeed only after
	// the heal lets the quorum renew again. No hands: the partition heals on
	// the script's clock, not in response to anything the clients do.
	inj.Partition(faultnet.Both, true)
	time.Sleep(lease + 3*syncIv)
	partitionDone := make(chan struct{})
	go func() {
		defer close(partitionDone)
		time.Sleep(40 * time.Millisecond) // let fenced offers pile into backoff
		inj.Partition(faultnet.Both, false)
	}()
	ingestChunk(1, nil)
	<-partitionDone
	checkChunk(1)

	// Chunk 2: quiesce, then kill shard 0's primary; sites fail over.
	for site := 0; site < k; site++ {
		if err := clients[site].Flush(); err != nil {
			t.Fatalf("quiesce flush: %v", err)
		}
	}
	syncNow("quiesce sync")
	victim := rs.Table().Slots[0]
	if _, err := srv.KillPrimary(victim); err != nil {
		t.Fatalf("kill shard %d: %v", victim, err)
	}
	ingestChunk(2, nil)
	checkChunk(2)

	// Chunk 3: a live split concurrent with ingest; the cutover pushes the
	// new table to every connected site.
	ingestChunk(3, func() error {
		table := rs.Table()
		slot := table.Slots[len(table.Slots)-1]
		mid, err := table.SplitPoint(slot, 0.5)
		if err != nil {
			return err
		}
		if _, err := rs.Split(slot, mid); err != nil {
			return fmt.Errorf("live split: %w", err)
		}
		return nil
	})
	checkChunk(3)

	for site, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatalf("close site %d: %v", site, err)
		}
	}
	// One more forced round so the last sampled ingest batch's stashed trace
	// is adopted by a sync round, completing a site→shard→replica timeline.
	syncNow("final sync")

	// The healing machinery demonstrably ran. Deltas, not absolutes — the
	// registry is process-global.
	after := obs.Default().Snapshot()
	delta := func(name string) uint64 { return after.Counter(name) - before.Counter(name) }
	if d := delta("dds_lease_lapses_total"); d == 0 {
		t.Fatal("dds_lease_lapses_total did not move: the partition never fenced a primary")
	}
	if d := delta(`dds_retry_attempts_total{op="lease-wait"}`); d == 0 {
		t.Fatal(`dds_retry_attempts_total{op="lease-wait"} did not move: no client waited out the fence`)
	}
	if d := delta("dds_route_pushes_total"); d == 0 {
		t.Fatal("dds_route_pushes_total did not move: the split's cutover pushed no route frames")
	}
	if d := delta("dds_replica_lease_renewals_total"); d == 0 {
		t.Fatal("dds_replica_lease_renewals_total did not move: quorum renewals never resumed")
	}
	sawLapse := false
	for _, ev := range obs.Events().Since(evBase) {
		if ev.Msg == "lease lapsed" {
			sawLapse = true
		}
	}
	if !sawLapse {
		t.Fatal("no lease-lapsed event in the control-plane trail")
	}

	// The tracing tentpole demonstrably worked end to end: one trace must link
	// the site plane (batch assembly and acks), the shard plane (coordinator
	// decode/lock/offer), and the replica plane (the sync round that adopted
	// the batch's context) — and the run's lease renewals and the split's
	// route push must each have recorded their spans.
	plane := func(stage string) int {
		switch {
		case strings.HasPrefix(stage, "site_") || strings.HasPrefix(stage, "credit_"):
			return 0
		case strings.HasPrefix(stage, "coord_"):
			return 1
		case strings.HasPrefix(stage, "sync_") || strings.HasPrefix(stage, "replica_") || strings.HasPrefix(stage, "lease_"):
			return 2
		}
		return -1
	}
	planes := map[uint64][3]bool{}
	sawLease, sawPush := false, false
	for _, sp := range obs.Traces().Spans() {
		if sp.Stage == obs.StageLeaseRenew {
			sawLease = true
		}
		if sp.Stage == obs.StageRoutePush {
			sawPush = true
		}
		if p := plane(sp.Stage); p >= 0 {
			m := planes[sp.TraceID]
			m[p] = true
			planes[sp.TraceID] = m
		}
	}
	crossPlane := false
	for _, m := range planes {
		if m[0] && m[1] && m[2] {
			crossPlane = true
			break
		}
	}
	if !crossPlane {
		t.Fatal("no recorded trace spans all three planes (site, shard, replica)")
	}
	if !sawLease {
		t.Fatal("no lease_renew span recorded across the run")
	}
	if !sawPush {
		t.Fatal("no route_push span recorded for the split's cutover")
	}
}
