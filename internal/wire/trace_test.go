package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestTraceUnsampledBatchEncodeAllocationFree pins the tentpole's hot-path
// contract end to end: with sampling disabled, the per-batch trace decision
// plus the traced binary encode (the trace triple is three zero bytes on the
// wire) must not allocate once the connection is warm.
func TestTraceUnsampledBatchEncodeAllocationFree(t *testing.T) {
	defer obs.SetTraceSampleRate(0)
	obs.SetTraceSampleRate(0)
	c := newBinConn(bufio.NewReader(bytes.NewReader(nil)), io.Discard)
	f := benchBatchFrame()
	if err := c.WriteFrame(f); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tc := obs.StartTrace()
		f.SetTrace(tc)
		if err := c.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		obs.StageSpan(tc, obs.StageSiteWrite, 0, 1) // unsampled no-op
	})
	if !raceEnabled && allocs > 0 {
		t.Fatalf("unsampled traced encode allocates %.1f times per frame, want 0", allocs)
	}
}

// TestTraceContextRoundTripsAndResets checks the codec carries the trace
// triple on traced frames and — decoding into a reused Frame — clears it on
// frames that do not carry one.
func TestTraceContextRoundTripsAndResets(t *testing.T) {
	traced := *benchBatchFrame()
	traced.TraceID, traced.SpanID, traced.TraceFlags = 0xabcdef, 0x1234, obs.FlagSampled
	plain := Frame{Type: FrameHello, Site: 7}

	data := encodeFrames(t, traced, plain)
	c := newBinConn(bufio.NewReaderSize(bytes.NewReader(data), 64), io.Discard)
	var got Frame
	if err := c.ReadFrame(&got); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != traced.TraceID || got.SpanID != traced.SpanID || got.TraceFlags != traced.TraceFlags {
		t.Fatalf("trace triple did not round-trip: got %x/%x/%x", got.TraceID, got.SpanID, got.TraceFlags)
	}
	if tc := got.Trace(); !tc.Sampled() || tc.TraceID != traced.TraceID {
		t.Fatalf("Frame.Trace() = %+v, want sampled with trace ID %x", tc, traced.TraceID)
	}
	// The hello frame reuses the same Frame buffer: its decode must leave no
	// stale trace context behind.
	if err := c.ReadFrame(&got); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.SpanID != 0 || got.TraceFlags != 0 {
		t.Fatalf("non-carrying frame kept stale trace fields: %x/%x/%x", got.TraceID, got.SpanID, got.TraceFlags)
	}
}

// TestTraceSpansCoverIngestPath runs a fully sampled site→coordinator ingest
// over TCP and asserts one trace links the site-side stages to the
// coordinator's, and that the server stashed the batch trace for the
// replication driver (TakeTrace).
func TestTraceSpansCoverIngestPath(t *testing.T) {
	defer obs.SetTraceSampleRate(0)
	obs.SetTraceSampleRate(1)

	srv, addr := startServer(t, core.NewInfiniteCoordinator(8))
	client, err := DialSiteOptions(&floodSite{id: 0, hasher: hashing.NewMurmur2(2)}, addr,
		Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"ta", "tb", "tc", "td", "te", "tf", "tg", "th"}
	for i, key := range keys {
		if err := client.Observe(key, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	stages := map[uint64]map[string]bool{}
	for _, sp := range obs.Traces().Spans() {
		m := stages[sp.TraceID]
		if m == nil {
			m = map[string]bool{}
			stages[sp.TraceID] = m
		}
		m[sp.Stage] = true
	}
	found := false
	for _, m := range stages {
		if m[obs.StageSiteBatch] && m[obs.StageSiteWrite] && m[obs.StageSiteAck] &&
			m[obs.StageCoordDecode] && m[obs.StageCoordLock] && m[obs.StageCoordOffer] {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no single trace covers all site+coordinator stages; per-trace stages: %v", stages)
	}

	if tc := srv.TakeTrace(); !tc.Sampled() {
		t.Fatal("server did not stash the sampled batch trace for TakeTrace")
	}
	if tc := srv.TakeTrace(); tc.Sampled() {
		t.Fatal("TakeTrace did not clear the stash")
	}
}

// slowCoordinator answers every message after a short sleep, so a pipelined
// writer fills its credit window and stalls.
type slowCoordinator struct{ Node }

func (c slowCoordinator) OnMessage(msg netsim.Message, slot int64, out *netsim.Outbox) {
	time.Sleep(100 * time.Microsecond)
	c.Node.OnMessage(msg, slot, out)
}

// TestTraceCreditWaitSpanRidesNextBatch: a credit stall usually ends with
// less than a batch pending, because the window filled on the batch just
// shipped, so its credit_wait span must be closed by the next batch that
// ships. Every stall except the last one before Close is followed by a ship,
// so at full sampling each of them records a credit_wait span.
func TestTraceCreditWaitSpanRidesNextBatch(t *testing.T) {
	defer obs.SetTraceSampleRate(0)
	obs.SetTraceSampleRate(1)

	srv := NewCoordinatorServer(slowCoordinator{core.NewInfiniteCoordinator(16)})
	t.Cleanup(func() { _ = srv.Close() })
	client, err := DialSiteMem(&floodSite{id: 0, hasher: hashing.NewMurmur2(3)}, srv,
		Options{BatchSize: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	waits := obs.StageHistogram(obs.StageCreditWait)
	stalls0, spans0 := obsCreditStalls.Value(), waits.Count()
	for i := 0; i < 100; i++ {
		if err := client.Observe(fmt.Sprintf("cw-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	stalls, spans := obsCreditStalls.Value()-stalls0, waits.Count()-spans0
	if stalls == 0 {
		t.Fatal("writer never stalled on credit")
	}
	if spans+1 < stalls {
		t.Fatalf("%d credit stalls recorded only %d credit_wait spans, want at least %d", stalls, spans, stalls-1)
	}
}
