package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sliding"
	"repro/internal/wire"
)

// TestQueryWindowGroupsIdleShardExact pins the code-review finding that
// motivated QueryWindowGroups: an idle shard (nothing advances its slot
// clock) reports only its store minimum through Sample(), and if that
// minimum has expired it hides still-live higher-hash candidates — the
// Sample-based merge then misses the true window minimum. The
// snapshot-based window query reads the full candidate store and stays
// exact.
func TestQueryWindowGroupsIdleShardExact(t *testing.T) {
	node := sliding.NewCoordinator()
	// Two non-dominated tuples at slot 10: A is the minimum but dies at
	// slot 14; B lives through slot 15. The shard then goes idle.
	node.Offer(core.Offer{Key: "A", Hash: 0.1, Slot: 10, Expiry: 14})
	node.Offer(core.Offer{Key: "B", Hash: 0.3, Slot: 10, Expiry: 15})

	srv := wire.NewCoordinatorServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	groups := [][]string{{addr}}

	// The Sample-based path demonstrates the gap: the shard reports only
	// the expired minimum, so the expiry filter finds nothing live.
	samples, err := QueryGroups(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := MergeWindow(15, samples); len(got) != 0 {
		t.Fatalf("Sample-based merge at slot 15 returned %v; expected the documented blind spot (empty)", got)
	}

	// The snapshot-based query is exact: B is live and surfaces.
	got, err := QueryWindowGroups(groups, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != "B" {
		t.Fatalf("QueryWindowGroups at slot 15 = %v, want the live candidate B", got)
	}
	// And at slot 14 both candidates are live; A is the true minimum.
	got, err = QueryWindowGroups(groups, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != "A" {
		t.Fatalf("QueryWindowGroups at slot 14 = %v, want A", got)
	}
	// Past every expiry the window is empty.
	if got, err := QueryWindowGroups(groups, 16); err != nil || len(got) != 0 {
		t.Fatalf("QueryWindowGroups at slot 16 = %v, %v; want empty window", got, err)
	}
}
