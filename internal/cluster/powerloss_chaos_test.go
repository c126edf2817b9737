package cluster

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/durable"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestPowerLossChaosRestores is the durability subsystem's acceptance test:
// a whole cluster dies mid-ingest — every process, primaries and replicas
// alike, killed without any graceful shutdown — and a fresh set of processes
// restores from the snapshot spool, rejoins under the persisted route table,
// and ends up byte-identical to the centralized reference.
//
// The paper's structure makes this exact up to the bounded spool window: the
// sample IS the state, so a snapshot is a complete backup, and any offer
// since the last spool barrier is repaired by the same idempotent replay
// clients already run after a failover. The test closes the window at a
// known barrier (flush + sync + spool), kills the cluster mid-way through
// the next chunk, and after restore replays that entire chunk — offers are
// idempotent, so re-offering keys the dead cluster had absorbed is harmless
// and the merged sample must equal the full-stream oracle exactly.
func TestPowerLossChaosRestores(t *testing.T) {
	const (
		k      = 3
		s      = 24
		shards = 2
		seed   = 99
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(6000, 1500, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}

	oracle := core.NewReference(s, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	want, err := json.Marshal(oracle.Sample())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sp, err := durable.Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	table := UniformTable(shards)
	if err := sp.WriteManifest(TableManifest(table, s, 0, seed)); err != nil {
		t.Fatal(err)
	}
	newCoord := func(int, int) wire.Node { return core.NewInfiniteCoordinator(s) }
	srv, err := replica.Listen("127.0.0.1:0", shards, replica.Options{
		Replicas:      1,
		SyncInterval:  20 * time.Millisecond,
		Spool:         sp,
		SpoolInterval: time.Hour, // barriers are explicit below; no timer races
	}, newCoord)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRangeRouter(table, hasher)
	if err != nil {
		t.Fatal(err)
	}
	wopts := wire.Options{BatchSize: 16, Window: 4}
	dial := func(groups [][]string, rt *ShardRouter) []*SiteClient {
		t.Helper()
		clients := make([]*SiteClient, k)
		for site := 0; site < k; site++ {
			id := site
			var derr error
			clients[site], derr = DialGroups(groups, rt, func(int) netsim.SiteNode {
				return core.NewInfiniteSite(id, hasher)
			}, wopts)
			if derr != nil {
				t.Fatal(derr)
			}
		}
		return clients
	}
	clients := dial(srv.GroupAddrs(), router)

	// Chunk A: the spooled prefix. Flush + sync + spool closes the window —
	// everything below is on disk.
	var wg sync.WaitGroup
	for site := 0; site < k; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			mine := perSite[site]
			for _, a := range mine[:len(mine)/2] {
				if err := clients[site].Observe(a.Key, a.Slot); err != nil {
					t.Errorf("site %d chunk A: %v", site, err)
					return
				}
			}
			if err := clients[site].Flush(); err != nil {
				t.Errorf("site %d flush: %v", site, err)
			}
		}(site)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := srv.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if err := srv.SpoolNow(); err != nil {
		t.Fatal(err)
	}

	// Chunk B: ingest races a full-cluster power loss. Errors are the point —
	// sites lose every connection at once with batches in flight; nothing
	// after the barrier is guaranteed durable.
	for site := 0; site < k; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			mine := perSite[site]
			for _, a := range mine[len(mine)/2:] {
				if clients[site].Observe(a.Key, a.Slot) != nil {
					return // the cluster just died under us
				}
			}
			_ = clients[site].Flush()
		}(site)
	}
	time.Sleep(2 * time.Millisecond)
	if err := srv.Halt(); err != nil { // power loss: no final spool
		t.Fatal(err)
	}
	wg.Wait()
	for _, c := range clients {
		_ = c.Close()
	}

	// Restart from disk on fresh addresses. The spool is reopened exactly as
	// a new process would see it.
	before := obs.Default().Snapshot()
	sp2, err := durable.Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv2, table2, restored, err := RestoreServer("127.0.0.1:0", sp2, shards, replica.Options{
		Replicas:      1,
		SyncInterval:  20 * time.Millisecond,
		SpoolInterval: time.Hour,
	}, newCoord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if table2.Version != table.Version || len(table2.Slots) != shards {
		t.Fatalf("restored table = %+v, want the persisted %+v", table2, table)
	}
	if len(restored) != shards {
		t.Fatalf("restored %d slots, want %d (every shard spooled at the barrier)", len(restored), shards)
	}
	after := obs.Default().Snapshot()
	if d := after.Counter("dds_durable_restores_total") - before.Counter("dds_durable_restores_total"); d != uint64(shards) {
		t.Fatalf("dds_durable_restores_total moved %d, want %d", d, shards)
	}

	// Fresh sites replay the whole since-barrier chunk — the unacked window
	// writ large. Offers are idempotent, so overlap with what the dead
	// cluster had absorbed (and lost) is harmless.
	router2, err := NewRangeRouter(table2, hasher)
	if err != nil {
		t.Fatal(err)
	}
	clients = dial(srv2.GroupAddrs(), router2)
	for site := 0; site < k; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			mine := perSite[site]
			for _, a := range mine[len(mine)/2:] {
				if err := clients[site].Observe(a.Key, a.Slot); err != nil {
					t.Errorf("site %d replay: %v", site, err)
					return
				}
			}
			if err := clients[site].Flush(); err != nil {
				t.Errorf("site %d replay flush: %v", site, err)
			}
		}(site)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	shardSamples, err := srv2.PrimarySamples()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(Merge(s, shardSamples...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged sample after power-loss restore differs from reference\n got: %s\nwant: %s", got, want)
	}
}

// TestRestoreEmptyDataDir pins the cold-boot path: a data dir with no
// manifest and no snapshots restores nothing, adopts a uniform table over
// the default shard count, and serves.
func TestRestoreEmptyDataDir(t *testing.T) {
	const s = 8
	sp, err := durable.Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, table, restored, err := RestoreServer("127.0.0.1:0", sp, 2, replica.Options{
		Replicas: 1, SyncInterval: 20 * time.Millisecond, SpoolInterval: time.Hour,
	}, func(int, int) wire.Node { return core.NewInfiniteCoordinator(s) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if len(restored) != 0 {
		t.Fatalf("restored %d slots from an empty dir", len(restored))
	}
	if len(table.Slots) != 2 || table.Version != UniformTable(2).Version {
		t.Fatalf("cold boot adopted table %+v, want uniform over 2 shards", table)
	}
	sample, err := QueryGroups(srv.GroupAddrs(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 0 {
		t.Fatalf("cold cluster has %d sample entries", len(sample))
	}
}

// spoolTestSnapshot writes one populated infinite-window snapshot for slot,
// returning the key it sampled.
func spoolTestSnapshot(t *testing.T, sp *durable.Spool, slot int, sampleSize int, routeVersion uint64, key string) {
	t.Helper()
	node := core.NewInfiniteCoordinator(sampleSize)
	node.Offer(core.Offer{Key: key, Hash: 0.25})
	if _, err := sp.WriteSnapshot(slot, 1, routeVersion, node.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// TestRestorePartialSpoolStartsMissingSlotsCold: the manifest routes to two
// shards but only one ever spooled (it crashed before the other's first
// snapshot). The spooled slot restores warm; the other starts cold; the
// cluster serves the union.
func TestRestorePartialSpoolStartsMissingSlotsCold(t *testing.T) {
	const s = 8
	sp, err := durable.Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	table := UniformTable(2)
	if err := sp.WriteManifest(TableManifest(table, s, 0, 1)); err != nil {
		t.Fatal(err)
	}
	spoolTestSnapshot(t, sp, 0, s, table.Version, "warm-key")
	srv, table2, restored, err := RestoreServer("127.0.0.1:0", sp, 2, replica.Options{
		Replicas: 1, SyncInterval: 20 * time.Millisecond, SpoolInterval: time.Hour,
	}, func(int, int) wire.Node { return core.NewInfiniteCoordinator(s) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if len(restored) != 1 {
		t.Fatalf("restored slots = %v, want just slot 0", restored)
	}
	if _, ok := restored[0]; !ok {
		t.Fatalf("slot 0 not restored: %v", restored)
	}
	if table2.Version != table.Version {
		t.Fatalf("adopted version %d, want %d", table2.Version, table.Version)
	}
	sample, err := QueryGroups(srv.GroupAddrs(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 1 || sample[0].Key != "warm-key" {
		t.Fatalf("restored cluster sample = %v, want the spooled key", sample)
	}
}

// TestRestoreStaleSnapshotOutsideTableIsSkipped: a merge retired slot 1 and
// rewrote the manifest, but the crash beat the snapshot prune. The restore
// must trust the manifest — restoring the retired slot's snapshot would
// double-count a range its survivor already absorbed.
func TestRestoreStaleSnapshotOutsideTableIsSkipped(t *testing.T) {
	const s = 8
	sp, err := durable.Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	table := UniformTable(1) // post-merge: one shard owns everything
	table.Version = 7
	if err := sp.WriteManifest(TableManifest(table, s, 0, 1)); err != nil {
		t.Fatal(err)
	}
	spoolTestSnapshot(t, sp, 0, s, table.Version, "live-key")
	spoolTestSnapshot(t, sp, 1, s, 6, "retired-key") // pre-merge leftover
	srv, table2, restored, err := RestoreServer("127.0.0.1:0", sp, 4, replica.Options{
		Replicas: 1, SyncInterval: 20 * time.Millisecond, SpoolInterval: time.Hour,
	}, func(int, int) wire.Node { return core.NewInfiniteCoordinator(s) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if table2.Version != 7 || len(table2.Slots) != 1 {
		t.Fatalf("adopted table %+v, want the manifest's single-shard v7 table", table2)
	}
	if _, stale := restored[1]; stale {
		t.Fatal("retired slot 1's stale snapshot was restored")
	}
	if _, ok := restored[0]; !ok || len(restored) != 1 {
		t.Fatalf("restored = %v, want exactly slot 0", restored)
	}
	sample, err := QueryGroups(srv.GroupAddrs(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 1 || sample[0].Key != "live-key" {
		t.Fatalf("sample = %v, want only the live slot's key", sample)
	}
}

// TestRunDurabilityBench smokes the spool on/off benchmark: both runs ingest,
// background snapshots land, the barrier and restore are timed, and the
// restored cluster matches the reference (enforced inside the bench itself).
func TestRunDurabilityBench(t *testing.T) {
	cfg := DefaultBenchConfig()
	cfg.Shards = 2
	cfg.Elements = 4000
	cfg.Distinct = 1000
	cfg.Batch = 16
	cfg.Window = 4
	res, err := RunDurabilityBench(cfg, 1, 20*time.Millisecond, 10*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.OffOpsPerSec <= 0 || res.OnOpsPerSec <= 0 {
		t.Fatalf("implausible throughput: %+v", res)
	}
	if res.Snapshots < uint64(cfg.Shards) || res.SnapshotBytes == 0 {
		t.Fatalf("spooled run wrote %d snapshots / %d bytes: %+v", res.Snapshots, res.SnapshotBytes, res)
	}
	if res.RestoredSlots != cfg.Shards {
		t.Fatalf("restore warmed %d slots, want %d: %+v", res.RestoredSlots, cfg.Shards, res)
	}
	if res.SpoolBarrierSec <= 0 || res.RestoreSec <= 0 {
		t.Fatalf("unmeasured barrier/restore: %+v", res)
	}
	if res.MergedSampleLen != cfg.SampleSize {
		t.Fatalf("merged sample len %d, want %d", res.MergedSampleLen, cfg.SampleSize)
	}
}

// TestReshardDurabilityBarrier pins the post-plan barrier: with a spool
// armed via SetSpool, a completed split rewrites the manifest to the new
// table and force-spools every live shard, so snapshots on disk carry the
// new route version and a crash immediately after the cutover restores into
// the post-split topology.
func TestReshardDurabilityBarrier(t *testing.T) {
	const s = 8
	sp, err := durable.Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	hasher := hashing.NewMurmur2(1)
	router := NewShardRouter(1, hasher)
	srv, err := replica.Listen("127.0.0.1:0", 1, replica.Options{
		Replicas: 1, SyncInterval: 20 * time.Millisecond,
		RouteHash: router.RouteHash, Spool: sp, SpoolInterval: time.Hour,
	}, func(int, int) wire.Node { return core.NewInfiniteCoordinator(s) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs := NewResharder(srv, router.Table())
	rs.SetSpool(sp, durable.Manifest{SampleSize: s, Seed: 1})

	mid, err := rs.Table().SplitPoint(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rs.Split(0, mid) // no registered sites: cutover is immediate
	if err != nil {
		t.Fatal(err)
	}

	m, err := sp.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.RouteVersion != rep.Version {
		t.Fatalf("manifest after split = %+v, want route version %d", m, rep.Version)
	}
	mt, err := ManifestTable(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.Slots) != 2 {
		t.Fatalf("manifest table routes %d slots after a split, want 2", len(mt.Slots))
	}
	restored, _, err := sp.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 {
		t.Fatalf("barrier spooled %d slots, want both: %v", len(restored), restored)
	}
	for slot, r := range restored {
		if r.Header.RouteVersion != rep.Version {
			t.Fatalf("slot %d snapshot tagged route version %d, want %d", slot, r.Header.RouteVersion, rep.Version)
		}
	}
}
