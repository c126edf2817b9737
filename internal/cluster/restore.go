package cluster

import (
	"fmt"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Cold-start restore: rebuilding a cluster's shard topology and per-shard
// sampler state from a durable snapshot spool.
//
// The manifest is the source of truth for topology. Snapshots describe slot
// *state*, not slot *existence*: a spool can hold snapshots for slots the
// manifest's table no longer routes to (a merge retired them after the
// snapshot landed, and the crash beat the prune). Those are skipped with an
// event — restoring them would double-count ranges the survivor already
// absorbed. The reverse (table routes to a slot with no snapshot) starts
// that shard cold; offers are idempotent, so clients replaying their unacked
// windows repair it the same way they repair a failover gap.

// ManifestTable converts a spool manifest's recorded route table back into a
// validated RangeTable.
func ManifestTable(m *durable.Manifest) (RangeTable, error) {
	t := RangeTable{Version: m.RouteVersion, Bounds: append([]uint64(nil), m.Bounds...), Slots: append([]int(nil), m.Slots...)}
	if err := t.Validate(); err != nil {
		return RangeTable{}, fmt.Errorf("cluster: manifest route table: %w", err)
	}
	return t, nil
}

// TableManifest builds the spool manifest recording a route table plus the
// sampler configuration the snapshots were taken under.
func TableManifest(t RangeTable, sampleSize int, window int64, seed uint64) durable.Manifest {
	return durable.Manifest{
		RouteVersion: t.Version,
		Bounds:       append([]uint64(nil), t.Bounds...),
		Slots:        append([]int(nil), t.Slots...),
		SampleSize:   sampleSize,
		Window:       window,
		Seed:         seed,
	}
}

// RestoreServer starts a replica server whose shard groups are warmed from
// the newest valid snapshot in sp, adopting the spooled manifest's route
// table when one exists (falling back to a uniform table over defaultShards
// for a cold or manifest-less spool). Every member of a restored group —
// replicas included — is warmed with the same snapshot, so a restart
// followed immediately by a primary failure still promotes a warm replica.
// Slots the adopted table does not route to are retired after bring-up.
//
// The returned table is the one the cluster now routes under; restored maps
// each warmed slot to the snapshot it was restored from.
func RestoreServer(listen string, sp *durable.Spool, defaultShards int, opts replica.Options, newCoord func(shard, member int) wire.Node) (*replica.Server, RangeTable, map[int]durable.Restored, error) {
	restored, manifest, err := sp.Restore()
	if err != nil {
		return nil, RangeTable{}, nil, err
	}
	var table RangeTable
	if manifest != nil {
		if table, err = ManifestTable(manifest); err != nil {
			return nil, RangeTable{}, nil, err
		}
	} else {
		table = UniformTable(defaultShards)
	}
	live := make(map[int]bool, len(table.Slots))
	for _, slot := range table.Slots {
		live[slot] = true
	}
	for slot := range restored {
		if !live[slot] {
			// Stale snapshot for a slot the manifest's (newer) table retired:
			// its range already lives on a survivor.
			obs.Logger().Warn("durable restore: snapshot for slot outside route table; skipping",
				"slot", slot, "route_version", table.Version)
			delete(restored, slot)
		}
	}
	shards := table.MaxSlot() + 1
	if shards < defaultShards && manifest == nil {
		shards = defaultShards
	}
	opts.Spool = sp
	warmed := func(shard, member int) wire.Node {
		node := newCoord(shard, member)
		snap, ok := restored[shard]
		if !ok {
			return node
		}
		if rerr := node.Restore(snap.State); rerr != nil {
			// Config drift (sample size, kind) between the spool and the new
			// process: start this member cold rather than refuse to boot.
			obs.Logger().Warn("durable restore: snapshot rejected by fresh node; starting cold",
				"slot", shard, "member", member, "err", rerr.Error())
		}
		return node
	}
	srv, err := replica.Listen(listen, shards, opts, warmed)
	if err != nil {
		return nil, RangeTable{}, nil, err
	}
	for slot := 0; slot < shards; slot++ {
		if !live[slot] {
			if rerr := srv.RetireGroup(slot); rerr != nil {
				srv.Halt()
				return nil, RangeTable{}, nil, fmt.Errorf("cluster: restore: retire slot %d: %w", slot, rerr)
			}
		}
	}
	srv.NoteRouteVersion(table.Version)
	return srv, table, restored, nil
}
