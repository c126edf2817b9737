package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/sliding"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestSlidingChaosMatchesReference is the sliding-window axis of the chaos
// harness, and the acceptance test of the unified Snapshot/Restore API: it
// proves the sliding-window coordinator — restorable only since its candidate
// store, slot clock, and candidate became a first-class core.State — now gets
// replication, failover, and online resharding exactly like the
// infinite-window sampler. For initial shard counts C in {1, 2, 4}, under
// synchronous-batched and pipelined binary ingest, k sites drive a slotted
// stream through scripted-random online splits and merges plus one quiesced
// mid-ingest primary kill, and after every chunk the merged window sample
// must be byte-identical to the single-coordinator reference.
//
// The reference is the brute-force window minimum: the minimum-hash key among
// the elements whose most recent arrival lies within the window — exactly the
// sample an exact single coordinator holds at a slot boundary. Key and hash
// are compared byte-identically; the entry's expiry is additionally required
// to prove liveness (>= the boundary slot) and to never exceed the true
// expiry. (The expiry a coordinator holds may lag the newest arrival of the
// sampled element: a site does not re-offer its own current candidate, and
// the reference single coordinator lags identically, so equality on the lag
// is not a meaningful invariant to pin.)
//
// Reshard plans run concurrently with a chunk's ingest; site-side window
// state migrates at the table flip (SiteClient.repartitionSiteState), which
// is what keeps expiry-driven promotions reaching the new owner. The kill
// runs between chunks after a quiesce (EndSlot + flush + forced state-frame
// sync), matching the infinite axis's bounded-resync accounting.
func TestSlidingChaosMatchesReference(t *testing.T) {
	const (
		k        = 3
		window   = 40
		seed     = 20130501
		elements = 3000
		perSlot  = 5
		chunks   = 6
	)
	hasher := hashing.NewMurmur2(seed)
	all := stream.Reslot(dataset.Uniform(elements, 700, seed).Generate(), perSlot)
	arrivals := distribute.Apply(all, distribute.NewRandom(k, seed))
	stream.SortArrivals(arrivals)
	minSlot, maxSlot := arrivals[0].Slot, arrivals[len(arrivals)-1].Slot

	// perSiteSlot[site][slot] lists the site's arrivals of that slot.
	perSiteSlot := make([]map[int64][]string, k)
	for i := range perSiteSlot {
		perSiteSlot[i] = make(map[int64][]string)
	}
	for _, a := range arrivals {
		perSiteSlot[a.Site][a.Slot] = append(perSiteSlot[a.Site][a.Slot], a.Key)
	}
	chunkEnd := func(chunk int) int64 {
		return minSlot + (maxSlot-minSlot+1)*int64(chunk+1)/chunks - 1
	}

	// trueWindowEntry computes the brute-force reference at boundary slot
	// now: the minimum-hash key among the live keys, with its true expiry.
	trueWindowEntry := func(now int64) (netsim.SampleEntry, bool) {
		lastArrival := make(map[string]int64)
		for _, a := range arrivals {
			if a.Slot > now {
				break
			}
			if a.Slot > lastArrival[a.Key] || lastArrival[a.Key] == 0 {
				lastArrival[a.Key] = a.Slot
			}
		}
		var best netsim.SampleEntry
		have := false
		for key, last := range lastArrival {
			if last <= now-window {
				continue // expired: most recent arrival left the window
			}
			h := hasher.Unit(key)
			if !have || h < best.Hash {
				best, have = netsim.SampleEntry{Key: key, Hash: h, Expiry: last + window - 1}, true
			}
		}
		return best, have
	}

	for _, shards := range []int{1, 2, 4} {
		for _, opts := range []wire.Options{
			{BatchSize: 8},            // synchronous batched
			{BatchSize: 8, Window: 4}, // pipelined
		} {
			name := fmt.Sprintf("shards=%d window=%d", shards, opts.Window)
			rng := rand.New(rand.NewSource(seed + int64(shards)*100 + int64(opts.Window)))
			router := NewShardRouter(shards, hasher)
			srv, err := replica.Listen("127.0.0.1:0", shards, replica.Options{
				Replicas:     1,
				SyncInterval: 20 * time.Millisecond,
				RouteHash:    router.RouteHash,
			}, func(shard, member int) wire.Node {
				return sliding.NewCoordinator()
			})
			if err != nil {
				t.Fatal(err)
			}

			rs := NewResharder(srv, router.Table())
			groups := srv.GroupAddrs()
			clients := make([]*SiteClient, k)
			for site := 0; site < k; site++ {
				id := site
				clients[site], err = DialGroups(groups, router, func(shard int) netsim.SiteNode {
					return sliding.NewSite(id, hasher, window, uint64(id*100+shard)+1)
				}, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			rs.Register(clients...)

			killChunk := 1 + rng.Intn(chunks-1)
			splits, merges := 0, 0
			from := minSlot
			for chunk := 0; chunk < chunks; chunk++ {
				to := chunkEnd(chunk)
				if chunk == killChunk {
					// Quiesce (the preceding chunk ended with EndSlot + Flush
					// on every site), force one state-frame sync so each
					// replica holds its primary's exact store and slot clock,
					// then kill a random live shard's primary.
					if err := srv.SyncNow(); err != nil {
						t.Fatalf("%s chunk %d: quiesce sync: %v", name, chunk, err)
					}
					table := rs.Table()
					victim := table.Slots[rng.Intn(table.NumRanges())]
					if _, err := srv.KillPrimary(victim); err != nil {
						t.Fatalf("%s chunk %d: kill shard %d: %v", name, chunk, victim, err)
					}
				}

				// Ingest the chunk's slot range concurrently across sites;
				// every site closes out every slot so expiry-driven
				// promotions fire. After its range each site keeps pumping
				// route updates until the chunk's concurrent plan settled.
				opDone := make(chan struct{})
				errs := make(chan error, k)
				var wg sync.WaitGroup
				for site := 0; site < k; site++ {
					wg.Add(1)
					go func(site int) {
						defer wg.Done()
						for slot := from; slot <= to; slot++ {
							for _, key := range perSiteSlot[site][slot] {
								if err := clients[site].Observe(key, slot); err != nil {
									errs <- fmt.Errorf("site %d: %w", site, err)
									return
								}
							}
							if err := clients[site].EndSlot(slot); err != nil {
								errs <- fmt.Errorf("site %d: end slot %d: %w", site, slot, err)
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

				// The scripted plan for this chunk, concurrent with ingest.
				if chunk > 0 && chunk != killChunk {
					table := rs.Table()
					if table.NumRanges() > 1 && rng.Intn(2) == 0 {
						idx := rng.Intn(table.NumRanges() - 1)
						if _, err := rs.MergeAt(idx); err != nil {
							close(opDone)
							wg.Wait()
							t.Fatalf("%s chunk %d: merge at range %d: %v", name, chunk, idx, err)
						}
						merges++
					} else {
						slot := table.Slots[rng.Intn(table.NumRanges())]
						mid, err := table.SplitPoint(slot, 0.25+0.5*rng.Float64())
						if err != nil {
							close(opDone)
							wg.Wait()
							t.Fatal(err)
						}
						if _, err := rs.Split(slot, mid); err != nil {
							close(opDone)
							wg.Wait()
							t.Fatalf("%s chunk %d: split slot %d at %#x: %v", name, chunk, slot, mid, err)
						}
						splits++
					}
				}
				close(opDone)
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatalf("%s chunk %d: %v", name, chunk, err)
					}
				}

				// The invariant: the merged window sample over the live shard
				// primaries is byte-identical (key and hash) to the
				// brute-force reference, and provably live.
				want, haveWant := trueWindowEntry(to)
				samples, err := srv.PrimarySamples()
				if err != nil {
					t.Fatalf("%s chunk %d: %v", name, chunk, err)
				}
				merged := MergeWindow(to, samples...)
				if !haveWant {
					if len(merged) != 0 {
						t.Fatalf("%s chunk %d: merged window sample %+v, want empty window", name, chunk, merged)
					}
				} else {
					if len(merged) != 1 {
						t.Fatalf("%s chunk %d: merged window sample has %d entries, want 1", name, chunk, len(merged))
					}
					got := merged[0]
					gotID, _ := json.Marshal(netsim.SampleEntry{Key: got.Key, Hash: got.Hash})
					wantID, _ := json.Marshal(netsim.SampleEntry{Key: want.Key, Hash: want.Hash})
					if !bytes.Equal(gotID, wantID) {
						t.Fatalf("%s chunk %d (v%d, %d ranges): merged window sample diverged from reference\n got: %s\nwant: %s",
							name, chunk, rs.Table().Version, rs.Table().NumRanges(), gotID, wantID)
					}
					if got.Expiry < to || got.Expiry > want.Expiry {
						t.Fatalf("%s chunk %d: merged sample expiry %d outside [%d, %d]", name, chunk, got.Expiry, to, want.Expiry)
					}
				}
				from = to + 1
			}

			if splits == 0 {
				t.Fatalf("%s: schedule ran %d splits and %d merges; the chaos never split a live shard", name, splits, merges)
			}
			failovers := 0
			for _, c := range clients {
				n, _ := c.Failovers()
				failovers += n
			}
			if failovers == 0 {
				t.Fatalf("%s: no site failed over across the primary kill in chunk %d", name, killChunk)
			}
			// The remote query path agrees, across retired slots and all.
			if want, haveWant := trueWindowEntry(maxSlot); haveWant {
				queried, err := QueryGroups(srv.GroupAddrs(), 0)
				if err != nil {
					t.Fatalf("%s: query groups: %v", name, err)
				}
				remote := MergeWindow(maxSlot, queried)
				if len(remote) != 1 || remote[0].Key != want.Key || remote[0].Hash != want.Hash {
					t.Fatalf("%s: queried window sample %+v, want %q", name, remote, want.Key)
				}
			}
			for site, c := range clients {
				clients[site] = nil
				if err := c.Close(); err != nil {
					t.Fatalf("%s: close: %v", name, err)
				}
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: server close: %v", name, err)
			}
		}
	}
}
