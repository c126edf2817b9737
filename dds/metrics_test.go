package dds_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/dds"
	"repro/internal/core"
	"repro/internal/sliding"
	"repro/internal/wire"
)

// TestClientStatsViaAdmin exercises the stats admin verb end to end: serve a
// cluster with an admin listener, ingest through a client opened against it,
// and require Client.Stats to report the ingest totals plus a metrics
// snapshot whose wire and shard instruments have moved.
func TestClientStatsViaAdmin(t *testing.T) {
	ctx := context.Background()
	cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, SampleSize: 16},
		dds.WithAdmin("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	client, err := dds.Open(ctx, dds.Config{SampleSize: 16}, dds.WithAdmin(cl.AdminAddr()), dds.WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 400; i++ {
		if err := client.Offer(fmt.Sprintf("stats-key-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Offers == 0 {
		t.Fatal("Stats reports zero offers after ingest")
	}
	var encoded uint64
	for _, c := range stats.Metrics.Counters {
		if strings.HasPrefix(c.Name, "dds_wire_frames_encoded_total") {
			encoded += c.Value
		}
	}
	if encoded == 0 {
		t.Fatal("metrics snapshot has no encoded-frame counts")
	}
	if stats.Metrics.Counter(`dds_shard_offers_total{slot="0"}`)+stats.Metrics.Counter(`dds_shard_offers_total{slot="1"}`) == 0 {
		t.Fatal("metrics snapshot has no per-shard offer counts")
	}
	if stats.Watcher != nil {
		t.Fatal("Stats reports watcher counters on a cluster without WithAutoReshard")
	}

	// Stats without an admin listener is a configuration error, not a panic.
	bare, err := dds.Open(ctx, dds.Config{Coordinators: cl.Groups(), SampleSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Stats(ctx); err == nil {
		t.Fatal("Stats without WithAdmin should fail")
	}
}

// TestAutoReshardOptionAndStats pins the WithAutoReshard surface: the
// contradictory and out-of-range configurations fail at Serve, and an armed
// cluster reports the watcher's decision counters through the stats admin
// verb (non-nil even before the watcher has acted).
func TestAutoReshardOptionAndStats(t *testing.T) {
	ctx := context.Background()
	base := dds.Config{Listen: "127.0.0.1:0", SampleSize: 16}
	if _, err := dds.Serve(ctx, base, dds.WithWatchInterval(time.Second)); err == nil {
		t.Fatal("Serve with watcher tuning but no WithAutoReshard succeeded")
	}
	if _, err := dds.Serve(ctx, base, dds.WithAutoReshard(1.5, 0.1, time.Minute)); err == nil {
		t.Fatal("Serve with a high watermark above 1 succeeded")
	}
	if _, err := dds.Serve(ctx, base, dds.WithAutoReshard(0.3, 0.6, time.Minute)); err == nil {
		t.Fatal("Serve with low watermark above high succeeded")
	}
	if _, err := dds.Serve(ctx, base, dds.WithAutoReshard(0.65, 0.15, -time.Minute)); err == nil {
		t.Fatal("Serve with a negative cooldown succeeded")
	}

	cl, err := dds.Serve(ctx, dds.Config{Listen: "127.0.0.1:0", Shards: 2, SampleSize: 16},
		dds.WithAdmin("127.0.0.1:0"),
		dds.WithAutoReshard(0, 0, time.Minute), // watermarks default to 0.65 / 0.15
		dds.WithWatchInterval(time.Hour))       // idle for the test's lifetime
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if ws := cl.WatcherStats(); ws == nil {
		t.Fatal("WatcherStats is nil on a cluster armed WithAutoReshard")
	}
	status, err := dds.AdminStats(ctx, cl.AdminAddr())
	if err != nil {
		t.Fatal(err)
	}
	if status.Watcher == nil {
		t.Fatal("stats admin verb omitted watcher counters on an armed cluster")
	}
}

// TestSnapshotMultiCoordinator asserts the fix for the carried-forward
// multi-copy gap: Client.Snapshot against a per-copy sliding-window
// coordinator now succeeds — the MultiCoordinator gained real
// Snapshot/Restore via the section-level slot clock — and the captured blob
// is the full multi-copy state: sliding kind, one section per copy.
func TestSnapshotMultiCoordinator(t *testing.T) {
	const copies = 4
	srv := wire.NewCoordinatorServer(sliding.NewMultiCoordinator(copies))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	client, err := dds.Open(ctx, dds.Config{Coordinators: [][]string{{addr}}, SampleSize: copies})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	states, err := client.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot of a multi-copy sliding coordinator failed: %v", err)
	}
	if len(states) != 1 {
		t.Fatalf("got %d shard states, want 1", len(states))
	}
	st, err := core.DecodeState(states[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != core.StateSliding || st.SampleSize != copies || len(st.Sections) != copies {
		t.Fatalf("snapshot = kind %v s=%d sections=%d, want sliding s=%d sections=%d",
			st.Kind, st.SampleSize, len(st.Sections), copies, copies)
	}
	// And the blob restores into a fresh multi-coordinator.
	if err := sliding.NewMultiCoordinator(copies).Restore(st); err != nil {
		t.Fatalf("restore of the captured snapshot failed: %v", err)
	}
}
