package dds

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sliding"
	"repro/internal/wire"
)

// Cluster is an embeddable sampler cluster: Shards replica groups (one
// primary plus WithReplicas warm replicas each), a reshard driver for live
// splits and merges, and an optional admin listener. Serve starts one; tests,
// examples, and cmd/ddsnode all run on it.
type Cluster struct {
	cfg     Config
	router  *cluster.ShardRouter
	srv     *replica.Server
	rs      *cluster.Resharder
	admin   net.Listener
	watcher *cluster.Watcher
	spool   *durable.Spool // nil without WithDataDir
}

// Serve starts a cluster per cfg (Listen, Shards, SampleSize, Seed, plus the
// WithWindow/WithReplicas/WithSyncInterval/WithLease/WithAdmin options) and
// returns it running. The context bounds startup only; the cluster serves
// until Close.
func Serve(ctx context.Context, cfg Config, opts ...Option) (*Cluster, error) {
	cfg, err := cfg.normalize(opts)
	if err != nil {
		return nil, err
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.traceSampleSet {
		obs.SetTraceSampleRate(cfg.traceSample)
	}
	newCoord := func(shard, member int) wire.Node {
		if cfg.window > 0 {
			return sliding.NewCoordinator()
		}
		return core.NewInfiniteCoordinator(cfg.SampleSize)
	}
	var (
		router *cluster.ShardRouter
		srv    *replica.Server
		spool  *durable.Spool
	)
	if cfg.dataDir != "" {
		var err error
		router, srv, spool, err = serveDurable(cfg, newCoord)
		if err != nil {
			return nil, err
		}
	} else {
		router = cluster.NewShardRouter(cfg.Shards, cfg.hasher())
		var err error
		srv, err = replica.Listen(cfg.Listen, cfg.Shards, replica.Options{
			Replicas:     cfg.replicas,
			SyncInterval: cfg.syncInterval,
			Lease:        cfg.lease,
			RouteHash:    router.RouteHash,
		}, newCoord)
		if err != nil {
			return nil, fmt.Errorf("dds: serve: %w", err)
		}
	}
	cl := &Cluster{
		cfg:    cfg,
		router: router,
		srv:    srv,
		rs:     cluster.NewResharder(srv, router.Table()),
		spool:  spool,
	}
	if spool != nil {
		// Reshard durability barrier: every completed plan rewrites the
		// manifest to the new table and force-spools the live shards.
		cl.rs.SetSpool(spool, durable.Manifest{
			SampleSize: cfg.SampleSize, Window: cfg.window, Seed: cfg.Seed,
		})
	}
	if cfg.admin != "" {
		if _, err := cl.ServeAdmin(cfg.admin); err != nil {
			_ = srv.Close()
			return nil, err
		}
	}
	if cfg.autoReshard {
		cl.watcher = cluster.NewWatcher(cl.rs, cluster.WatcherConfig{
			Interval:      cfg.watchInterval,
			HighWatermark: cfg.watchHigh,
			LowWatermark:  cfg.watchLow,
			Cooldown:      cfg.watchCooldown,
			ChurnWeight:   cfg.churnWeight,
		})
		cl.watcher.Start()
	}
	return cl, nil
}

// serveDurable is Serve's WithDataDir path: open the spool, adopt the
// persisted route table (uniform over cfg.Shards for a fresh dir), restore
// every routed shard's newest valid snapshot into the starting groups, and
// arm background spooling.
func serveDurable(cfg Config, newCoord func(shard, member int) wire.Node) (*cluster.ShardRouter, *replica.Server, *durable.Spool, error) {
	sp, err := durable.Open(cfg.dataDir, cfg.snapRetain)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dds: serve: %w", err)
	}
	m, err := sp.ReadManifest()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dds: serve: %w", err)
	}
	table := cluster.UniformTable(cfg.Shards)
	if m != nil {
		// The spool's identity fields must match this process's: snapshots
		// taken under a different hash seed, sample size, or window describe
		// a different sampler and must not be laundered into this one.
		switch {
		case m.Seed != cfg.Seed:
			return nil, nil, nil, fmt.Errorf("dds: data dir %s was written under seed %d, this cluster runs seed %d", cfg.dataDir, m.Seed, cfg.Seed)
		case m.SampleSize != cfg.SampleSize:
			return nil, nil, nil, fmt.Errorf("dds: data dir %s was written under sample size %d, this cluster runs %d", cfg.dataDir, m.SampleSize, cfg.SampleSize)
		case m.Window != cfg.window:
			return nil, nil, nil, fmt.Errorf("dds: data dir %s was written under window %d, this cluster runs %d", cfg.dataDir, m.Window, cfg.window)
		}
		if table, err = cluster.ManifestTable(m); err != nil {
			return nil, nil, nil, fmt.Errorf("dds: serve: %w", err)
		}
	}
	router, err := cluster.NewRangeRouter(table, cfg.hasher())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dds: serve: %w", err)
	}
	srv, _, _, err := cluster.RestoreServer(cfg.Listen, sp, cfg.Shards, replica.Options{
		Replicas:      cfg.replicas,
		SyncInterval:  cfg.syncInterval,
		Lease:         cfg.lease,
		RouteHash:     router.RouteHash,
		SpoolInterval: cfg.snapInterval,
	}, newCoord)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dds: serve: %w", err)
	}
	if m == nil {
		// Fresh dir: record the starting table so a crash before the first
		// reshard still restores into the right topology.
		if err := sp.WriteManifest(cluster.TableManifest(table, cfg.SampleSize, cfg.window, cfg.Seed)); err != nil {
			_ = srv.Close()
			return nil, nil, nil, fmt.Errorf("dds: serve: %w", err)
		}
	}
	return router, srv, sp, nil
}

// RestoreCluster starts a cluster from a point-in-time backup directory
// (Client.Backup) or a previous cluster's WithDataDir spool: every shard the
// recorded routing table routes to is warmed from its newest valid snapshot
// before serving. It is Serve with the directory armed — the restored
// cluster keeps spooling new snapshots into dir.
func RestoreCluster(ctx context.Context, dir string, cfg Config, opts ...Option) (*Cluster, error) {
	return Serve(ctx, cfg, append(append([]Option(nil), opts...), WithDataDir(dir))...)
}

// Groups returns the cluster's slot-indexed shard group addresses (member
// addresses in promotion order; nil entries for slots retired by
// resharding) — the value a client's Config.Coordinators takes.
func (cl *Cluster) Groups() [][]string { return cl.srv.GroupAddrs() }

// CoordinatorSpec renders the current groups as the flag-friendly string
// cmd/ddsnode accepts: shards comma-separated, replica-group members
// slash-separated, retired slots skipped.
func (cl *Cluster) CoordinatorSpec() string {
	var shardArgs []string
	for _, members := range cl.Groups() {
		if len(members) == 0 {
			continue
		}
		shardArgs = append(shardArgs, strings.Join(members, "/"))
	}
	return strings.Join(shardArgs, ",")
}

// AdminAddr returns the bound admin listener address ("" when none is
// serving).
func (cl *Cluster) AdminAddr() string {
	if cl.admin == nil {
		return ""
	}
	return cl.admin.Addr().String()
}

// Range is one contiguous routing-hash range of the cluster's partition:
// keys whose routing hash falls in [Lo, Hi) are owned by shard slot Slot.
// Hi == 0 means the range extends to 2^64.
type Range struct {
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
	Slot int    `json:"slot"`
}

// Ranges returns the cluster's current partition in routing-hash order,
// with the table version it is valid at.
func (cl *Cluster) Ranges() (version uint64, ranges []Range) {
	table := cl.rs.Table()
	version = table.Version
	for i, slot := range table.Slots {
		lo := table.Bounds[i]
		hi := uint64(0)
		if i+1 < len(table.Bounds) {
			hi = table.Bounds[i+1]
		}
		ranges = append(ranges, Range{Lo: lo, Hi: hi, Slot: slot})
	}
	return version, ranges
}

// Attach registers in-process clients with the reshard driver, so live
// splits and merges flip their routing tables cooperatively at their next
// operation boundary. Every unclosed in-process client ingesting into the
// cluster must be attached before resharding; external (cross-process)
// clients instead reconnect via the admin listener.
func (cl *Cluster) Attach(clients ...*Client) {
	for _, c := range clients {
		cl.rs.Register(c.sc)
	}
}

// ReshardReport records what one live reshard did and what it cost.
type ReshardReport struct {
	// Op is "split" or "merge".
	Op string `json:"op"`
	// Version is the routing-table version the plan published.
	Version uint64 `json:"version"`
	// Donor gave up the moved range; Successor received it.
	Donor     int `json:"donor"`
	Successor int `json:"successor"`
	// Lo and Hi delimit the moved range [Lo, Hi); Hi == 0 means 2^64.
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	// WarmEntries and SettleEntries count the snapshot entries the
	// pre-cutover and post-cutover handoff frames carried — the entire data
	// motion of the reshard.
	WarmEntries   int `json:"warm_entries"`
	SettleEntries int `json:"settle_entries"`
	// CutoverStall is the window from publishing the new table until every
	// attached client had flipped; Total is the whole plan's wall-clock.
	CutoverStall time.Duration `json:"cutover_stall"`
	Total        time.Duration `json:"total"`
}

func toReport(rep *cluster.ReshardReport) *ReshardReport {
	if rep == nil {
		return nil
	}
	return &ReshardReport{
		Op: rep.Op, Version: rep.Version, Donor: rep.Donor, Successor: rep.Successor,
		Lo: rep.Lo, Hi: rep.Hi, WarmEntries: rep.WarmEntries, SettleEntries: rep.SettleEntries,
		CutoverStall: rep.CutoverStall, Total: rep.Total,
	}
}

// Split cuts shard slot's range at fraction frac of its width (0 < frac < 1;
// out-of-range values mean 0.5): a fresh shard group starts, warms from one
// snapshot handoff, attached clients flip live, and the donor prunes what it
// handed away. Blocks until the cutover settles.
func (cl *Cluster) Split(slot int, frac float64) (*ReshardReport, error) {
	mid, err := cl.rs.Table().SplitPoint(slot, frac)
	if err != nil {
		return nil, err
	}
	rep, err := cl.rs.Split(slot, mid)
	return toReport(rep), err
}

// MergeAt merges partition range rangeIdx (see Ranges) with the range to its
// right: the left range's shard absorbs the right one's range and state, and
// the absorbed group retires. Blocks until the cutover settles.
func (cl *Cluster) MergeAt(rangeIdx int) (*ReshardReport, error) {
	rep, err := cl.rs.MergeAt(rangeIdx)
	return toReport(rep), err
}

// RangeIndexOf returns the index (into Ranges) of the range owned by shard
// slot, or -1 if the slot owns none.
func (cl *Cluster) RangeIndexOf(slot int) int { return cl.rs.Table().RangeIndexOf(slot) }

// KillPrimary force-kills shard slot's current primary — listener and live
// connections included, so clients notice immediately — and returns the
// killed member's index. Clients fail over to the next live replica.
func (cl *Cluster) KillPrimary(slot int) (int, error) { return cl.srv.KillPrimary(slot) }

// PrimaryIndex returns the member index of the shard's current primary, or
// -1 for a retired or fully dead slot.
func (cl *Cluster) PrimaryIndex(slot int) int { return cl.srv.PrimaryIndex(slot) }

// Epochs returns the replication epoch of every member of the shard.
func (cl *Cluster) Epochs(slot int) []uint64 { return cl.srv.Epochs(slot) }

// SyncNow forces one immediate replication round on every live shard: after
// it returns, every replica holds its primary's exact current state.
func (cl *Cluster) SyncNow() error { return cl.srv.SyncNow() }

// Sample returns the cluster-wide merged sample from the live primaries:
// the exact global bottom-s in whole-stream mode, or the live window
// minimum at slot asOf in sliding-window mode (read from full shard
// snapshots, so a shard with a lagging slot clock cannot hide live
// candidates behind an expired minimum).
func (cl *Cluster) Sample(asOf int64) (Sample, error) {
	if cl.cfg.window > 0 {
		entries, err := cluster.QueryWindowGroups(cl.Groups(), asOf)
		if err != nil {
			return nil, err
		}
		return toSample(entries), nil
	}
	samples, err := cl.srv.PrimarySamples()
	if err != nil {
		return nil, err
	}
	return toSample(cluster.Merge(cl.cfg.SampleSize, samples...)), nil
}

// Stats returns cluster-wide totals of offers received, reply messages
// sent, and queries answered.
func (cl *Cluster) Stats() (offers, replies, queries int) { return cl.srv.Stats() }

// WatcherStats is a running count of the autopilot watcher's decisions:
// scoring ticks taken, split and merge plans executed, ticks on which it
// declined to act, and the last plan's op and target slot. Zero-valued when
// WithAutoReshard is off.
type WatcherStats struct {
	Ticks   uint64 `json:"ticks"`
	Splits  uint64 `json:"splits"`
	Merges  uint64 `json:"merges"`
	Skipped uint64 `json:"skipped"`
	LastOp  string `json:"last_op,omitempty"`
	// LastSlot is the shard slot the last split targeted, or the surviving
	// slot of the last merge.
	LastSlot int `json:"last_slot,omitempty"`
}

// WatcherStats returns the autopilot watcher's decision counters, or nil
// when the cluster runs without WithAutoReshard.
func (cl *Cluster) WatcherStats() *WatcherStats {
	if cl.watcher == nil {
		return nil
	}
	ws := cl.watcher.Stats()
	return &WatcherStats{
		Ticks: ws.Ticks, Splits: ws.Splits, Merges: ws.Merges,
		Skipped: ws.Skipped, LastOp: ws.LastOp, LastSlot: ws.LastSlot,
	}
}

// Close stops the autopilot watcher, the admin listener, every shard member,
// and the replication loops.
func (cl *Cluster) Close() error {
	if cl.watcher != nil {
		cl.watcher.Stop()
	}
	if cl.admin != nil {
		_ = cl.admin.Close()
	}
	return cl.srv.Close()
}

// The admin protocol: one JSON request object per connection, answered by
// one JSON AdminStatus object. It is how cross-process tooling (cmd/ddsnode
// -role reshard) triggers live reshards and how joining clients (WithAdmin)
// fetch the live partition.

// adminRequest is one admin command. Op is "split", "merge", "table", or
// "stats".
type adminRequest struct {
	Op    string  `json:"op"`
	Slot  int     `json:"slot,omitempty"`
	Frac  float64 `json:"frac,omitempty"`
	Range int     `json:"range,omitempty"`
}

// AdminStatus is the admin listener's reply: the cluster's current routing
// state (and, for split/merge commands, the executed plan's report).
type AdminStatus struct {
	// Version, Bounds, and Slots are the live routing table: Bounds[i] is
	// the inclusive lower bound of the i-th range, owned by shard Slots[i].
	Version uint64   `json:"version"`
	Bounds  []uint64 `json:"bounds"`
	Slots   []int    `json:"slots"`
	// Groups is slot-indexed (nil entries for retired slots); Coordinator is
	// the same topology as a flag-friendly string.
	Groups      [][]string `json:"groups"`
	Coordinator string     `json:"coordinator"`
	// Report is the executed reshard's report (split and merge commands).
	Report *ReshardReport `json:"report,omitempty"`
	// Offers, Replies, Queries, and Metrics carry the cluster's ingest
	// totals and the serving process's metrics registry snapshot (stats
	// command).
	Offers  int              `json:"offers,omitempty"`
	Replies int              `json:"replies,omitempty"`
	Queries int              `json:"queries,omitempty"`
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
	// Watcher carries the autopilot watcher's decision counters (stats
	// command, only when the cluster runs WithAutoReshard).
	Watcher *WatcherStats `json:"watcher,omitempty"`
	// Error carries a command failure; the transport-level exchange still
	// succeeds so the caller sees the live table alongside it.
	Error string `json:"error,omitempty"`
}

// ServeAdmin starts the cluster's admin listener on addr and returns the
// bound address. Serve starts one automatically when WithAdmin is set.
func (cl *Cluster) ServeAdmin(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("dds: admin listen: %w", err)
	}
	cl.admin = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go cl.handleAdmin(conn)
		}
	}()
	return ln.Addr().String(), nil
}

func (cl *Cluster) handleAdmin(conn net.Conn) {
	defer conn.Close()
	var req adminRequest
	if err := json.NewDecoder(conn).Decode(&req); err != nil {
		_ = json.NewEncoder(conn).Encode(AdminStatus{Error: "bad request: " + err.Error()})
		return
	}
	var resp AdminStatus
	switch req.Op {
	case "split":
		rep, err := cl.Split(req.Slot, req.Frac)
		if err != nil {
			resp.Error = err.Error()
		} else {
			resp.Report = rep
		}
	case "merge":
		rep, err := cl.MergeAt(req.Range)
		if err != nil {
			resp.Error = err.Error()
		} else {
			resp.Report = rep
		}
	case "stats":
		resp.Offers, resp.Replies, resp.Queries = cl.Stats()
		ms := Metrics()
		resp.Metrics = &ms
		resp.Watcher = cl.WatcherStats()
	case "table", "":
		// Read-only.
	default:
		resp.Error = fmt.Sprintf("unknown op %q (want split, merge, table, or stats)", req.Op)
	}
	table := cl.rs.Table()
	resp.Version, resp.Bounds, resp.Slots = table.Version, table.Bounds, table.Slots
	resp.Groups = cl.Groups()
	resp.Coordinator = cl.CoordinatorSpec()
	_ = json.NewEncoder(conn).Encode(resp)
}

// adminRoundTrip sends one command to an admin listener and decodes the
// reply, honoring the context's deadline on the connection.
func adminRoundTrip(ctx context.Context, admin string, req adminRequest) (*AdminStatus, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", admin)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return nil, err
	}
	var resp AdminStatus
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return &resp, fmt.Errorf("dds: admin: %s", resp.Error)
	}
	return &resp, nil
}

// AdminTable fetches a running cluster's current routing table and shard
// groups from its admin listener.
func AdminTable(ctx context.Context, admin string) (*AdminStatus, error) {
	return adminRoundTrip(ctx, admin, adminRequest{Op: "table"})
}

// AdminSplit triggers a live split of shard slot at fraction frac of its
// range via the cluster's admin listener, blocking until the cutover
// settles.
func AdminSplit(ctx context.Context, admin string, slot int, frac float64) (*AdminStatus, error) {
	return adminRoundTrip(ctx, admin, adminRequest{Op: "split", Slot: slot, Frac: frac})
}

// AdminMerge triggers a live merge of partition range rangeIdx with its
// right neighbour via the cluster's admin listener.
func AdminMerge(ctx context.Context, admin string, rangeIdx int) (*AdminStatus, error) {
	return adminRoundTrip(ctx, admin, adminRequest{Op: "merge", Range: rangeIdx})
}
