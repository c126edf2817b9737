package main

import (
	"strings"
	"testing"
	"time"
)

// validFlags returns a flag set that passes validation, for the table to
// perturb.
func validFlags() nodeFlags {
	return nodeFlags{
		Role:         "coordinator",
		Listen:       "127.0.0.1:0",
		Coordinator:  "127.0.0.1:7070",
		Shards:       1,
		Replicas:     0,
		SyncInterval: 100 * time.Millisecond,
		Sample:       20,
		Batch:        1,
		Pipeline:     0,
		MergeRange:   -1,

		WatchHigh:     0.65,
		WatchLow:      0.15,
		WatchCooldown: 2 * time.Second,
		WatchInterval: 250 * time.Millisecond,
	}
}

// TestValidateFlags table-drives the contradictory-combination checks: every
// rejected combo must produce an actionable error naming the offending flag,
// and every sensible combo must pass — including the sliding-window +
// replication pairing the unified sampler API made legal.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*nodeFlags)
		wantErr string // substring of the expected error; "" means valid
	}{
		{"defaults", func(f *nodeFlags) {}, ""},
		{"unknown role", func(f *nodeFlags) { f.Role = "observer" }, "unknown role"},
		{"zero sample", func(f *nodeFlags) { f.Sample = 0 }, "-sample"},
		{"negative window", func(f *nodeFlags) { f.Window = -5 }, "-window"},
		{"zero shards", func(f *nodeFlags) { f.Role = "cluster-coordinator"; f.Shards = 0 }, "-shards"},
		{"negative replicas", func(f *nodeFlags) { f.Role = "cluster-coordinator"; f.Replicas = -1 }, "-replicas"},
		{"zero sync interval", func(f *nodeFlags) { f.Role = "cluster-coordinator"; f.Replicas = 1; f.SyncInterval = 0 }, "-sync-interval"},
		{"zero batch", func(f *nodeFlags) { f.Batch = 0 }, "-batch"},
		{"negative lease", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.Replicas = 1
			f.Lease = -time.Second
		}, "-lease-interval"},
		{"lease not exceeding sync interval", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.Replicas = 1
			f.Lease = 100 * time.Millisecond
		}, "must exceed -sync-interval"},
		{"lease without replicas", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.Lease = time.Second
		}, "-lease-interval needs -replicas"},
		{"leased replicated cluster is fine", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.Replicas = 1
			f.Lease = time.Second
		}, ""},
		{"negative retry base", func(f *nodeFlags) { f.RetryBase = -time.Millisecond }, "-retry-base"},
		{"negative retry max is fine", func(f *nodeFlags) {
			f.Role = "site"
			f.Stream = "-"
			f.RetryMax = -1
		}, ""},
		{"pipeline of one", func(f *nodeFlags) { f.Pipeline = 1 }, "-pipeline 1 is not a pipeline"},
		{"negative pipeline", func(f *nodeFlags) { f.Pipeline = -3 }, "not a pipeline"},
		{"pipeline of two is fine", func(f *nodeFlags) { f.Pipeline = 2 }, ""},
		{"reshard without admin", func(f *nodeFlags) { f.Role = "reshard" }, "-role reshard requires -admin"},
		{"reshard split and merge", func(f *nodeFlags) {
			f.Role = "reshard"
			f.Admin = "127.0.0.1:7069"
			f.Split = "0"
			f.MergeRange = 1
		}, "mutually exclusive"},
		{"reshard bad split slot", func(f *nodeFlags) {
			f.Role = "reshard"
			f.Admin = "127.0.0.1:7069"
			f.Split = "zero"
		}, "bad -split slot"},
		{"reshard bad split fraction", func(f *nodeFlags) {
			f.Role = "reshard"
			f.Admin = "127.0.0.1:7069"
			f.Split = "0:1.5"
		}, "bad -split fraction"},
		{"reshard split with fraction is fine", func(f *nodeFlags) {
			f.Role = "reshard"
			f.Admin = "127.0.0.1:7069"
			f.Split = "2:0.25"
		}, ""},
		{"site without stream", func(f *nodeFlags) { f.Role = "site" }, "-role site requires -stream"},
		{"site with stream is fine", func(f *nodeFlags) { f.Role = "site"; f.Stream = "-" }, ""},
		{"site without any coordinator", func(f *nodeFlags) {
			f.Role = "site"
			f.Stream = "-"
			f.Coordinator = ""
		}, "requires -coordinator"},
		{"site with admin only is fine", func(f *nodeFlags) {
			f.Role = "site"
			f.Stream = "-"
			f.Coordinator = ""
			f.Admin = "127.0.0.1:7069"
		}, ""},
		{"query without any coordinator", func(f *nodeFlags) {
			f.Role = "query"
			f.Coordinator = ""
		}, "requires -coordinator"},
		// The pairing the unified Snapshot/Restore API legalized: sliding
		// window + replication (and resharding) used to be rejected here.
		{"sliding window with replicas is fine", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.Window = 100
			f.Replicas = 2
		}, ""},
		{"sliding window with admin is fine", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.Window = 100
			f.Admin = "127.0.0.1:7069"
		}, ""},
		// The -metrics listener must be a real address and must not collide
		// with the data or admin listeners (all three are separate servers).
		{"metrics is fine", func(f *nodeFlags) { f.Metrics = "127.0.0.1:9100" }, ""},
		{"malformed metrics addr", func(f *nodeFlags) { f.Metrics = "no-port" }, "not a host:port"},
		{"metrics collides with listen", func(f *nodeFlags) {
			f.Listen = "127.0.0.1:7071"
			f.Metrics = "127.0.0.1:7071"
		}, "collides with -listen"},
		{"metrics collides with admin", func(f *nodeFlags) {
			f.Admin = "127.0.0.1:7069"
			f.Metrics = "127.0.0.1:7069"
		}, "collides with -admin"},
		{"scrape without endpoint", func(f *nodeFlags) { f.Role = "scrape" }, "-role scrape requires -scrape"},
		{"scrape with endpoint is fine", func(f *nodeFlags) {
			f.Role = "scrape"
			f.Scrape = "127.0.0.1:9100"
		}, ""},
		// -trace-sample is a probability and only meaningful on nodes that
		// record spans — the scrape client records none.
		{"trace sample above one", func(f *nodeFlags) { f.TraceSample = 1.5 }, "-trace-sample"},
		{"negative trace sample", func(f *nodeFlags) { f.TraceSample = -0.01 }, "-trace-sample"},
		{"trace sample on scrape role", func(f *nodeFlags) {
			f.Role = "scrape"
			f.Scrape = "127.0.0.1:9100"
			f.TraceSample = 0.5
		}, "meaningless for -role scrape"},
		// -autoreshard arms a control loop that mutates the partition on its
		// own; it must be observable (-metrics), auditable (-admin), and its
		// hysteresis knobs must make sense before any socket opens.
		{"autoreshard armed properly is fine", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.Shards = 2
			f.Admin = "127.0.0.1:7069"
			f.Metrics = "127.0.0.1:9100"
			f.AutoReshard = true
		}, ""},
		{"autoreshard without admin", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.Metrics = "127.0.0.1:9100"
			f.AutoReshard = true
		}, "-autoreshard requires -admin"},
		{"autoreshard without metrics", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.Admin = "127.0.0.1:7069"
			f.AutoReshard = true
		}, "-autoreshard requires -metrics"},
		{"autoreshard on site role", func(f *nodeFlags) {
			f.Role = "site"
			f.Stream = "-"
			f.Admin = "127.0.0.1:7069"
			f.Metrics = "127.0.0.1:9100"
			f.AutoReshard = true
		}, "only applies to coordinator roles"},
		{"watch high above one", func(f *nodeFlags) { f.WatchHigh = 1.2 }, "watermarks"},
		{"watch low above high", func(f *nodeFlags) { f.WatchLow = 0.8 }, "watermarks"},
		{"zero watch low", func(f *nodeFlags) { f.WatchLow = 0 }, "watermarks"},
		{"zero watch cooldown", func(f *nodeFlags) { f.WatchCooldown = 0 }, "-watch-cooldown"},
		{"negative watch interval", func(f *nodeFlags) { f.WatchInterval = -time.Second }, "-watch-interval"},
		// The durability flags: snapshot tuning without a spool directory is a
		// no-op the operator almost certainly did not intend, -data-dir only
		// makes sense where shards live, and negative tunings are nonsense.
		{"data dir on coordinator is fine", func(f *nodeFlags) { f.DataDir = "/tmp/dds" }, ""},
		{"data dir with tuning is fine", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.DataDir = "/tmp/dds"
			f.SnapInterval = 500 * time.Millisecond
			f.SnapRetain = 5
		}, ""},
		{"data dir on site role", func(f *nodeFlags) {
			f.Role = "site"
			f.Stream = "-"
			f.DataDir = "/tmp/dds"
		}, "-data-dir only applies to coordinator roles"},
		{"snap interval without data dir", func(f *nodeFlags) { f.SnapInterval = time.Second }, "need -data-dir"},
		{"snap retain without data dir", func(f *nodeFlags) { f.SnapRetain = 5 }, "need -data-dir"},
		{"negative snap interval", func(f *nodeFlags) {
			f.DataDir = "/tmp/dds"
			f.SnapInterval = -time.Second
		}, "-snap-interval"},
		{"negative snap retain", func(f *nodeFlags) {
			f.DataDir = "/tmp/dds"
			f.SnapRetain = -1
		}, "-snap-retain"},
		{"one percent trace sample is fine", func(f *nodeFlags) { f.TraceSample = 0.01 }, ""},
		{"full trace sample is fine", func(f *nodeFlags) {
			f.Role = "cluster-coordinator"
			f.TraceSample = 1
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFlags()
			tc.mutate(&f)
			err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%+v) = %v, want nil", f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%+v) = nil, want error containing %q", f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSplitGroups pins the -coordinator syntax.
func TestSplitGroups(t *testing.T) {
	groups := splitGroups("a:1/b:1, c:2 ,d:3/e:3/f:3")
	want := [][]string{{"a:1", "b:1"}, {"c:2"}, {"d:3", "e:3", "f:3"}}
	if len(groups) != len(want) {
		t.Fatalf("splitGroups = %v, want %v", groups, want)
	}
	for i := range want {
		if len(groups[i]) != len(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, groups[i], want[i])
		}
		for j := range want[i] {
			if groups[i][j] != want[i][j] {
				t.Fatalf("group %d member %d = %q, want %q", i, j, groups[i][j], want[i][j])
			}
		}
	}
}
