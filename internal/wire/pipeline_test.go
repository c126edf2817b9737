package wire

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/sliding"
	"repro/internal/stream"
)

// TestPipelinedInfiniteWindowEndToEnd is the pipelined counterpart of
// TestTCPInfiniteWindowEndToEnd: several concurrent sites stream batches
// with up to Window in flight, and the coordinator's sample still matches
// the centralized oracle exactly, with consistent message accounting.
func TestPipelinedInfiniteWindowEndToEnd(t *testing.T) {
	const (
		k    = 5
		s    = 12
		seed = 6
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(8000, 1500, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))

	srv, addr := startServer(t, core.NewInfiniteCoordinator(s))

	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	var wg sync.WaitGroup
	errs := make(chan error, k)
	clients := make([]*SiteClient, k)
	for site := 0; site < k; site++ {
		// Mix pipeline depths and batch sizes across sites, including
		// batch-size-1 pipelining (every offer its own sequenced frame).
		opts := Options{BatchSize: 1 << (site % 4), Window: 2 + site}
		client, err := DialSiteOptions(core.NewInfiniteSite(site, hasher), addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		clients[site] = client
		wg.Add(1)
		go func(site int, client *SiteClient) {
			defer wg.Done()
			for _, a := range perSite[site] {
				if err := client.Observe(a.Key, a.Slot); err != nil {
					errs <- err
					return
				}
			}
			errs <- client.Flush()
		}(site, client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	oracle := core.NewReference(s, hasher)
	oracle.ObserveAll(stream.Keys(elements))
	if !oracle.SameSample(srv.Sample()) {
		t.Fatal("pipelined sample does not match the oracle")
	}

	offers, replies, _ := srv.Stats()
	totalSent, totalReceived := 0, 0
	for _, c := range clients {
		totalSent += c.MessagesSent()
		totalReceived += c.MessagesReceived()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if offers != totalSent || replies != totalReceived {
		t.Fatalf("server saw %d offers / %d replies; clients sent %d / received %d",
			offers, replies, totalSent, totalReceived)
	}
}

// TestPipelinedSlidingWindowEndToEnd checks that EndSlot's window drain
// keeps slot boundaries exact for the expiry-driven sliding-window protocol
// even when batches stream asynchronously within a slot.
func TestPipelinedSlidingWindowEndToEnd(t *testing.T) {
	const (
		k      = 3
		window = 50
		seed   = 17
	)
	hasher := hashing.NewMurmur2(seed)
	elements := stream.Reslot(dataset.Uniform(3000, 600, seed).Generate(), 5)
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))
	stream.SortArrivals(arrivals)
	maxSlot := arrivals[len(arrivals)-1].Slot

	_, addr := startServer(t, sliding.NewCoordinator())

	clients := make([]*SiteClient, k)
	for site := 0; site < k; site++ {
		client, err := DialSiteOptions(sliding.NewSite(site, hasher, window, uint64(site)+1), addr,
			Options{BatchSize: 8, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		clients[site] = client
		defer client.Close()
	}

	idx := 0
	for slot := arrivals[0].Slot; slot <= maxSlot; slot++ {
		for idx < len(arrivals) && arrivals[idx].Slot == slot {
			a := arrivals[idx]
			idx++
			if err := clients[a.Site].Observe(a.Key, slot); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range clients {
			if err := c.EndSlot(slot); err != nil {
				t.Fatal(err)
			}
		}
	}

	sample, err := Query(addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 1 {
		t.Fatalf("sample size %d, want 1", len(sample))
	}
	live := stream.WindowDistinct(arrivals, maxSlot, window)
	bestKey, bestHash := "", 2.0
	for key := range live {
		if u := hasher.Unit(key); u < bestHash {
			bestKey, bestHash = key, u
		}
	}
	if sample[0].Key != bestKey {
		t.Fatalf("pipelined sliding sample %q, want window minimum %q", sample[0].Key, bestKey)
	}
}

// TestPipelinedAtLeast1_3xSyncBatched is the perf acceptance check of the
// pipelined path, mirroring TestBatchedAtLeast3xPerOffer: streaming
// batches with a credit window must beat the synchronous batched path by at
// least 1.3x on localhost (1.3x leaves headroom for loaded CI).
func TestPipelinedAtLeast1_3xSyncBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts a wall-clock throughput ratio; it is only meaningful uninstrumented")
	}
	const n = 200000
	syncOps := offerThroughput(t, n, Options{BatchSize: 64})
	pipeOps := offerThroughput(t, n, Options{BatchSize: 64, Window: DefaultWindow})
	t.Logf("sync binary batch=64: %.0f offers/s; pipelined window=%d: %.0f offers/s (%.2fx)",
		syncOps, DefaultWindow, pipeOps, pipeOps/syncOps)
	if pipeOps < 1.3*syncOps {
		t.Fatalf("pipelined %.0f offers/s is less than 1.3x sync batched %.0f offers/s", pipeOps, syncOps)
	}
}

// TestPipelinedRejectsBadSequence runs a misbehaving coordinator that echoes
// the wrong sequence number; the client must refuse the reply and surface a
// sequencing error instead of mismatching replies to batches.
func TestPipelinedRejectsBadSequence(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fc, err := serverConn(conn)
		if err != nil {
			return
		}
		var f Frame
		for {
			if err := fc.ReadFrame(&f); err != nil {
				return
			}
			if f.Type != FrameBatch {
				continue // swallow the hello
			}
			// Echo a sequence number the client never sent.
			_ = writeFlush(fc, &Frame{Type: FrameReplies, Seq: f.Seq + 5})
		}
	}()

	client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(1)}, ln.Addr().String(),
		Options{BatchSize: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Observe("x", 0); err != nil {
		t.Fatal(err) // ships the batch; the bogus reply arrives asynchronously
	}
	err = client.Flush()
	if err == nil || !strings.Contains(err.Error(), "sequence") {
		t.Fatalf("expected a reply-sequence error, got %v", err)
	}
}

// gatedCoordinator blocks every message until the gate channel is closed,
// simulating a coordinator that has stopped keeping up.
type gatedCoordinator struct {
	Node
	gate chan struct{}
}

func (g *gatedCoordinator) OnMessage(msg netsim.Message, slot int64, out *netsim.Outbox) {
	<-g.gate
	g.Node.OnMessage(msg, slot, out)
}

// TestPipelinedBackpressure checks the credit window's memory bound: with a
// stalled coordinator, the writer ships exactly Window batches and then
// blocks instead of buffering the whole stream. It runs over the in-memory
// frameConn backend, which removes TCP sockets and kernel-buffer timing from
// the picture: the writer must reach exactly window*batchSize shipped offers
// (polled, not slept for) and must not move past it.
func TestPipelinedBackpressure(t *testing.T) {
	const (
		window    = 2
		batchSize = 8
		total     = 400
	)
	gate := make(chan struct{})
	coord := &gatedCoordinator{Node: core.NewInfiniteCoordinator(16), gate: gate}
	srv := NewCoordinatorServer(coord)
	t.Cleanup(func() { _ = srv.Close() })

	hasher := hashing.NewMurmur2(11)
	client, err := DialSiteMem(&floodSite{id: 0, hasher: hasher}, srv,
		Options{BatchSize: batchSize, Window: window})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := client.Observe(fmt.Sprintf("bp-%d", i), 0); err != nil {
				done <- err
				return
			}
		}
		done <- client.Flush()
	}()

	// The writer must ship exactly a full window and then stall. Poll until
	// it gets there (deterministic: it cannot stop short of the window with
	// the stream this long), then hold a moment to catch any overrun.
	deadline := time.Now().Add(5 * time.Second)
	for client.MessagesSent() != window*batchSize {
		if time.Now().After(deadline) {
			t.Fatalf("writer stalled at %d offers; want a full window of %d", client.MessagesSent(), window*batchSize)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("ingest finished against a stalled coordinator (err=%v); the window did not block", err)
	default:
	}
	if sent := client.MessagesSent(); sent != window*batchSize {
		t.Fatalf("writer shipped %d offers against a stalled coordinator; the window allows exactly %d",
			sent, window*batchSize)
	}

	close(gate) // coordinator catches up; everything drains
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if sent := client.MessagesSent(); sent != total {
		t.Fatalf("sent %d offers after drain, want %d", sent, total)
	}
}

// TestPipelinedMidStreamDisconnect kills the connection with batches in
// flight behind a stalled coordinator: Flush and Close must surface an error
// promptly instead of hanging on replies that will never come.
func TestPipelinedMidStreamDisconnect(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate) // unblock the server handler so Close can reap it
	coord := &gatedCoordinator{Node: core.NewInfiniteCoordinator(16), gate: gate}
	_, addr := startServer(t, coord)

	client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(13)}, addr,
		Options{BatchSize: 2, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Fill part of the window (batches in flight, none acknowledged).
	for i := 0; i < 6; i++ {
		if err := client.Observe(fmt.Sprintf("dc-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	client.conn.Close() // the network goes away mid-stream

	errCh := make(chan error, 1)
	go func() { errCh <- client.Flush() }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expected Flush to fail after a mid-stream disconnect")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush hung after a mid-stream disconnect")
	}
	if err := client.Close(); err == nil {
		t.Fatal("expected Close to report the pipeline failure")
	}
}
