package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/stream"
)

// pipeBin builds a binary frameConn pair over an in-memory pipe.
func pipeBin(t *testing.T) (client, server frameConn, cleanup func()) {
	t.Helper()
	c, s := net.Pipe()
	// net.Pipe is synchronous: run reads and writes from different
	// goroutines in the tests.
	clientConn := newBinConn(bufio.NewReader(c), c)
	serverConn := newBinConn(bufio.NewReader(s), s)
	return clientConn, serverConn, func() { c.Close(); s.Close() }
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Site: 7},
		{Type: FrameOffer, Slot: -3, Msg: &netsim.Message{
			Kind: netsim.KindOffer, Key: "alpha", Hash: 0.125, U: 0.5, Expiry: 42, Copy: 3, From: -1,
		}},
		{Type: FrameReplies, Seq: 41, Msgs: []netsim.Message{
			{Kind: netsim.KindThreshold, U: 0.25, From: netsim.CoordinatorID},
			{Kind: netsim.KindWindowSample, Key: "beta", Hash: 0.75, Expiry: 9},
		}},
		{Type: FrameQuery},
		{Type: FrameSample, Entries: []netsim.SampleEntry{
			{Key: "k1", Hash: 0.01, Expiry: 100},
			{Key: "", Hash: 0.99},
		}},
		{Type: FrameError, Error: "boom"},
		{Type: FrameBatch, Seq: 7, Batch: []BatchEntry{
			{Slot: 1, Msg: netsim.Message{Kind: netsim.KindOffer, Key: "x", Hash: 0.5}},
			{Slot: 2, Msg: netsim.Message{Kind: netsim.KindWindowOffer, Key: "y", Hash: 0.25, Expiry: 11}},
		}},
		{Type: FrameReplies}, // empty replies round-trip too
		// Replication frames: full metadata, and the empty-state edge.
		{Type: FrameState, Epoch: 3, Seq: 99, Slot: -7, State: []byte{1, 2, 3}},
		{Type: FrameState},
		{Type: FrameStateAck, Epoch: 2, Seq: 17},
		{Type: FramePromote, Epoch: 4},
	}
	client, server, cleanup := pipeBin(t)
	defer cleanup()
	done := make(chan error, 1)
	go func() {
		for i := range frames {
			f := frames[i]
			if err := client.WriteFrame(&f); err != nil {
				done <- err
				return
			}
			if err := client.Flush(); err != nil { // WriteFrame only buffers
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := range frames {
		var got Frame
		if err := server.ReadFrame(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, frames[i]) {
			t.Fatalf("frame %d round-trip mismatch:\n got: %+v\nwant: %+v", i, got, frames[i])
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBinaryCodecRejectsCorruptInput(t *testing.T) {
	corrupt := [][]byte{
		{},                       // empty
		{0x05, 0x00, 0x00},       // truncated length prefix
		{0x00, 0x00, 0x00, 0x00}, // zero-length frame
		append(binary.LittleEndian.AppendUint32(nil, uint32(maxFrameSize+1)), 0x01), // oversized
		append(binary.LittleEndian.AppendUint32(nil, 1), 0x7f),                      // unknown frame code
		append(binary.LittleEndian.AppendUint32(nil, 2), binOffer, 0x01),            // truncated offer
		// replies frame claiming far more messages than the payload holds
		append(binary.LittleEndian.AppendUint32(nil, 3), binReplies, 0xff, 0x7f),
	}
	// The retired flat-sample state-sync and range-handoff codes: an old
	// peer's frame is refused, never read as another frame kind.
	corrupt = append(corrupt, retiredCodeFrames()...)
	for i, raw := range corrupt {
		c := newBinConn(bufio.NewReader(bytes.NewReader(raw)), &bytes.Buffer{})
		var f Frame
		if err := c.ReadFrame(&f); err == nil {
			t.Fatalf("corrupt input %d decoded without error: %+v", i, f)
		}
	}
}

// TestBinaryBatchedEndToEnd re-runs the infinite-window end-to-end
// deployment with batching and checks the sample against the centralized
// oracle, with batch sizes mixed on one server.
func TestBinaryBatchedEndToEnd(t *testing.T) {
	const (
		k    = 4
		s    = 16
		seed = 11
	)
	hasher := hashing.NewMurmur2(seed)
	elements := dataset.Uniform(6000, 1200, seed).Generate()
	arrivals := distribute.Apply(elements, distribute.NewRandom(k, seed))

	srv, addr := startServer(t, core.NewInfiniteCoordinator(s))

	perSite := make([][]stream.Arrival, k)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], a)
	}
	var wg sync.WaitGroup
	errs := make(chan error, k)
	for site := 0; site < k; site++ {
		// Mix batch sizes on the same server: batching is per connection.
		opts := Options{BatchSize: 32}
		if site%2 == 1 {
			opts = Options{BatchSize: 4}
		}
		client, err := DialSiteOptions(core.NewInfiniteSite(site, hasher), addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(site int, client *SiteClient) {
			defer wg.Done()
			for _, a := range perSite[site] {
				if err := client.Observe(a.Key, a.Slot); err != nil {
					errs <- err
					return
				}
			}
			errs <- client.Close() // Close flushes the partial batch
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
		t.Fatal("batched deployment diverged from the oracle")
	}
	// A remote query returns exactly the server's sample.
	queried, err := Query(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(queried, srv.Sample()) {
		t.Fatalf("queried sample differs from the server's:\n got: %+v\nwant: %+v", queried, srv.Sample())
	}
}

// TestServerRejectsBadPreamble covers the preamble check: a connection that
// does not open with the binary magic — a JSON-speaking peer included — is
// dropped without a response.
func TestServerRejectsBadPreamble(t *testing.T) {
	_, addr := startServer(t, core.NewInfiniteCoordinator(2))
	for _, preamble := range []string{"NOPE", "DDS2", `{"type":"query"}` + "\n"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(preamble)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Fatalf("expected the server to close a connection opening with %q", preamble)
		}
		conn.Close()
	}
}
