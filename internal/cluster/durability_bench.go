package cluster

import (
	"fmt"
	"sync"
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

// DurabilityBenchResult is the machine-readable outcome of one snapshot-spool
// benchmark run: what background spooling costs ingest, what one spool
// barrier costs in latency and bytes, and how fast a cold process restores
// the whole cluster from disk — with the proof that the restored merged
// sample still matches the centralized reference exactly.
type DurabilityBenchResult struct {
	Shards     int `json:"shards"`
	Sites      int `json:"sites"`
	Replicas   int `json:"replicas"`
	SampleSize int `json:"sample_size"`
	Batch      int `json:"batch"`
	Window     int `json:"window"`
	Elements   int `json:"elements"`
	// SpoolIntervalMillis is the background snapshot cadence the "on" run
	// ingested under.
	SpoolIntervalMillis float64 `json:"spool_interval_ms"`
	// OffOpsPerSec is ingest throughput with no spool armed; OnOpsPerSec is
	// the same stream with background spooling live. OverheadPct is the
	// relative cost: (off - on) / off. The paper's structure keeps this near
	// zero — a snapshot is one bounded sample encode plus one file write,
	// off the ingest path.
	OffOpsPerSec float64 `json:"off_ops_per_sec"`
	OnOpsPerSec  float64 `json:"on_ops_per_sec"`
	OverheadPct  float64 `json:"overhead_pct"`
	// Snapshots and SnapshotBytes count the spool files and payload bytes
	// the "on" run wrote (background ticks plus the final barrier).
	Snapshots     uint64 `json:"snapshots"`
	SnapshotBytes uint64 `json:"snapshot_bytes"`
	// SpoolBarrierSec is the average wall-clock of a forced all-shards spool
	// barrier (the cost of a reshard's or shutdown's durability point).
	SpoolBarrierSec float64 `json:"spool_barrier_sec"`
	// RestoreSec is the cold-start wall-clock from opening the spool to a
	// serving, fully-warmed cluster; RestoredSlots counts the shards that
	// came back warm.
	RestoreSec      float64 `json:"restore_sec"`
	RestoredSlots   int     `json:"restored_slots"`
	MergedSampleLen int     `json:"merged_sample_len"`
}

// RunDurabilityBench measures the durability subsystem end to end: one
// ingest run with the spool off, one with background snapshots on, an
// explicit spool barrier, a power-loss halt, and a timed cold restore. The
// restored cluster's merged sample must match the centralized reference —
// the spooled prefix covers the whole acknowledged stream by construction
// (flush + sync + barrier before the halt), so a restore that loses state
// fails the benchmark rather than reporting a number.
func RunDurabilityBench(cfg BenchConfig, replicas int, syncInterval, spoolInterval time.Duration, dir string) (*DurabilityBenchResult, error) {
	if replicas < 0 {
		replicas = 0
	}
	if spoolInterval <= 0 {
		spoolInterval = 25 * time.Millisecond
	}
	hasher := hashing.NewMurmur2(cfg.Seed)
	elements := dataset.Uniform(cfg.Elements, cfg.Distinct, cfg.Seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(cfg.Sites, cfg.Seed))
	perSite := make([][]stream.Arrival, cfg.Sites)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	oracle := core.NewReference(cfg.SampleSize, hasher)
	oracle.ObserveAll(stream.Keys(elements))

	newCoord := func(int, int) wire.Node {
		return core.NewInfiniteCoordinator(cfg.SampleSize)
	}
	table := UniformTable(cfg.Shards)
	wopts := wire.Options{BatchSize: cfg.Batch, Window: cfg.Window}

	// ingestAll replays the whole stream through fresh site clients against
	// srv and returns the wall-clock spent.
	ingestAll := func(srv *replica.Server) (time.Duration, error) {
		router, err := NewRangeRouter(table, hasher)
		if err != nil {
			return 0, err
		}
		clients := make([]*SiteClient, cfg.Sites)
		defer func() {
			for _, c := range clients {
				if c != nil {
					_ = c.Close()
				}
			}
		}()
		groups := srv.GroupAddrs()
		for site := 0; site < cfg.Sites; site++ {
			id := site
			clients[site], err = DialGroups(groups, router, func(int) netsim.SiteNode {
				return core.NewInfiniteSite(id, hasher)
			}, wopts)
			if err != nil {
				return 0, err
			}
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, cfg.Sites)
		for site := 0; site < cfg.Sites; site++ {
			wg.Add(1)
			go func(site int) {
				defer wg.Done()
				for _, a := range perSite[site] {
					if err := clients[site].Observe(a.Key, a.Slot); err != nil {
						errs <- err
						return
					}
				}
				errs <- clients[site].Flush()
			}(site)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errs)
		for err := range errs {
			if err != nil {
				return 0, err
			}
		}
		for site, c := range clients {
			clients[site] = nil
			if err := c.Close(); err != nil {
				return 0, err
			}
		}
		return elapsed, nil
	}

	// Baseline: the identical cluster with no spool armed.
	offSrv, err := replica.Listen("127.0.0.1:0", cfg.Shards, replica.Options{
		Replicas: replicas, SyncInterval: syncInterval,
	}, newCoord)
	if err != nil {
		return nil, err
	}
	offDur, err := ingestAll(offSrv)
	if cerr := offSrv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Spooled run: same stream, background snapshots live.
	sp, err := durable.Open(dir, durable.DefaultRetain)
	if err != nil {
		return nil, err
	}
	if err := sp.WriteManifest(TableManifest(table, cfg.SampleSize, 0, cfg.Seed)); err != nil {
		return nil, err
	}
	before := obs.Default().Snapshot()
	onSrv, err := replica.Listen("127.0.0.1:0", cfg.Shards, replica.Options{
		Replicas: replicas, SyncInterval: syncInterval,
		Spool: sp, SpoolInterval: spoolInterval,
	}, newCoord)
	if err != nil {
		return nil, err
	}
	onDur, err := ingestAll(onSrv)
	if err != nil {
		onSrv.Close()
		return nil, err
	}
	if err := onSrv.SyncNow(); err != nil {
		onSrv.Close()
		return nil, err
	}
	// Spool barrier cost: the forced all-shards snapshot a reshard cutover or
	// graceful shutdown pays, averaged over a few rounds.
	const barrierRounds = 8
	barrierStart := time.Now()
	for i := 0; i < barrierRounds; i++ {
		if err := onSrv.SpoolNow(); err != nil {
			onSrv.Close()
			return nil, err
		}
	}
	barrierAvg := time.Since(barrierStart) / barrierRounds
	after := obs.Default().Snapshot()
	if err := onSrv.Halt(); err != nil { // power loss, not a graceful close
		return nil, err
	}

	// Timed cold restore from the spool the halted cluster left behind.
	restoreStart := time.Now()
	sp2, err := durable.Open(dir, durable.DefaultRetain)
	if err != nil {
		return nil, err
	}
	srv2, rtable, restored, err := RestoreServer("127.0.0.1:0", sp2, cfg.Shards, replica.Options{
		Replicas: replicas, SyncInterval: syncInterval, SpoolInterval: spoolInterval,
	}, newCoord)
	if err != nil {
		return nil, err
	}
	restoreDur := time.Since(restoreStart)
	defer srv2.Close()
	if rtable.Version != table.Version {
		return nil, fmt.Errorf("cluster: durability bench: restored route version %d, want %d", rtable.Version, table.Version)
	}
	shardSamples, err := srv2.PrimarySamples()
	if err != nil {
		return nil, err
	}
	merged := Merge(cfg.SampleSize, shardSamples...)
	if !oracle.SameSample(merged) {
		return nil, fmt.Errorf("cluster: restored merged sample diverged from the centralized reference (shards=%d replicas=%d)",
			cfg.Shards, replicas)
	}

	offOps := float64(len(arrivals)) / offDur.Seconds()
	onOps := float64(len(arrivals)) / onDur.Seconds()
	return &DurabilityBenchResult{
		Shards:              cfg.Shards,
		Sites:               cfg.Sites,
		Replicas:            replicas,
		SampleSize:          cfg.SampleSize,
		Batch:               cfg.Batch,
		Window:              cfg.Window,
		Elements:            len(arrivals),
		SpoolIntervalMillis: float64(spoolInterval) / float64(time.Millisecond),
		OffOpsPerSec:        offOps,
		OnOpsPerSec:         onOps,
		OverheadPct:         100 * (offOps - onOps) / offOps,
		Snapshots:           after.Counter("dds_durable_snapshots_total") - before.Counter("dds_durable_snapshots_total"),
		SnapshotBytes:       after.Counter("dds_durable_bytes_total") - before.Counter("dds_durable_bytes_total"),
		SpoolBarrierSec:     barrierAvg.Seconds(),
		RestoreSec:          restoreDur.Seconds(),
		RestoredSlots:       len(restored),
		MergedSampleLen:     len(merged),
	}, nil
}
