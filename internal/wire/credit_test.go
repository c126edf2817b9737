package wire

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/netsim"
)

func thresholdReplies(seq uint64, u float64) Frame {
	return Frame{Type: FrameReplies, Seq: seq, Msgs: []netsim.Message{{Kind: netsim.KindThreshold, U: u}}}
}

// creditRig is a pipelined site (batch 1, window 2) over one end of a
// net.Pipe, with the test playing the coordinator on the other end through
// a real binConn reader and raw writes.
type creditRig struct {
	t     *testing.T
	node  *core.InfiniteSite
	site  *SiteClient
	coord net.Conn
	in    frameConn
}

// slowSecondRead holds the site reader's second ReadFrame, the one after
// the first replies frame, for 50 ms. A reader that wakes the writer after
// the first frame thus lets it return, and the test read the threshold,
// before the second frame is applied.
type slowSecondRead struct {
	frameConn
	reads int
}

func (c *slowSecondRead) ReadFrame(f *Frame) error {
	if c.reads++; c.reads == 2 {
		time.Sleep(50 * time.Millisecond)
	}
	return c.frameConn.ReadFrame(f)
}

func newCreditRig(t *testing.T) *creditRig {
	siteEnd, coordEnd := net.Pipe()
	node := core.NewInfiniteSite(0, hashing.NewMurmur2(1))
	fc := &slowSecondRead{frameConn: clientConn(siteEnd)}
	site := newSiteClient(node, siteEnd, fc, Options{BatchSize: 1, Window: 2})
	site.startPipeline()
	r := &creditRig{t: t, node: node, site: site, coord: coordEnd}
	t.Cleanup(func() {
		coordEnd.Close()
		_ = site.Close()
	})
	return r
}

// stall offers two keys from a goroutine: the first batch rides the
// buffer, the second fills the window, flushes both and blocks the writer
// on credit. The coordinator side reads both batch frames and returns once
// the writer has counted its credit stall: the writer holds the client's
// lock from that count until it waits, so replies written after stall
// returns are applied while it waits. The returned channel yields once the
// writer is woken and Observe returns.
func (r *creditRig) stall() <-chan error {
	stalls := obsCreditStalls.Value()
	done := make(chan error, 1)
	go func() {
		if err := r.site.Observe("k-first", 1); err != nil {
			done <- err
			return
		}
		done <- r.site.Observe("k-second", 1)
	}()
	in, err := serverConn(r.coord)
	if err != nil {
		r.t.Fatal(err)
	}
	r.in = in
	var f Frame
	for seq := uint64(0); seq < 2; seq++ {
		if err := r.in.ReadFrame(&f); err != nil {
			r.t.Fatal(err)
		}
		if f.Type != FrameBatch || f.Seq != seq {
			r.t.Fatalf("read %s seq %d, want batch seq %d", f.Type, f.Seq, seq)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); obsCreditStalls.Value() == stalls; {
		if time.Now().After(deadline) {
			r.t.Fatal("writer never stalled on credit")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return done
}

func (r *creditRig) write(b []byte) {
	if _, err := r.coord.Write(b); err != nil {
		r.t.Fatal(err)
	}
}

// woken waits for the stalled writer to return, failing the test on a
// timeout: a writer never woken is a hung site.
func (r *creditRig) woken(done <-chan error, what string) {
	select {
	case err := <-done:
		if err != nil {
			r.t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		r.t.Fatalf("credit-stalled writer never woken: %s", what)
	}
}

// TestCreditWakeWaitsForBufferedReplies: replies frames that arrive in one
// write all reach the site node before the stalled writer resumes, so the
// writer filters its next offers on the newest threshold, not the first.
// The rig holds the read of the second frame back, so a wake after the
// first frame fails here every time.
func TestCreditWakeWaitsForBufferedReplies(t *testing.T) {
	r := newCreditRig(t)
	done := r.stall()
	r.write(encodeFrames(t, thresholdReplies(0, 0.5), thresholdReplies(1, 0.1)))
	r.woken(done, "two replies frames in one write")
	if u := r.node.Threshold(); u != 0.1 {
		t.Fatalf("writer resumed with threshold %v while the second replies frame was buffered; want 0.1", u)
	}
}

// TestCreditWakeOnPartialFrame: bytes of a frame that has not fully arrived
// do not hold the wake back. The coordinator sends the rest only after the
// writer has resumed, so a reader that waited for it would hang the site.
func TestCreditWakeOnPartialFrame(t *testing.T) {
	r := newCreditRig(t)
	done := r.stall()
	push := encodeFrames(t, Frame{Type: FrameRoutePush, Seq: 2, Bounds: []uint64{0}, Slots: []int64{0}})
	cut := len(push) - 3
	r.write(append(encodeFrames(t, thresholdReplies(0, 0.5), thresholdReplies(1, 0.4)), push[:cut]...))
	r.woken(done, "only part of a route-push left in the read buffer")
	r.write(push[cut:])
}

// TestCreditWakeAfterTrailingRoutePush: a route-push right behind the last
// replies frame is read without the writer being woken, and the wake is
// still paid before the read after it, which blocks on the coordinator.
func TestCreditWakeAfterTrailingRoutePush(t *testing.T) {
	r := newCreditRig(t)
	done := r.stall()
	r.write(encodeFrames(t,
		thresholdReplies(0, 0.5),
		thresholdReplies(1, 0.4),
		Frame{Type: FrameRoutePush, Seq: 2, Bounds: []uint64{0}, Slots: []int64{0}},
	))
	r.woken(done, "route-push after the last replies frame")
}

// TestBinConnFrameBuffered pins the hint the reader wakes on: true only
// when a whole frame, length prefix and payload, is in the read buffer.
func TestBinConnFrameBuffered(t *testing.T) {
	whole := encodeFrames(t, thresholdReplies(0, 0.5))
	for _, tc := range []struct {
		name string
		in   []byte
		want bool
	}{
		{"empty", nil, false},
		{"part of the prefix", whole[:3], false},
		{"prefix and part of the payload", whole[:len(whole)-1], false},
		{"whole frame", whole, true},
		{"whole frame and part of the next", append(append([]byte(nil), whole...), whole[:5]...), true},
	} {
		c := newBinConn(bufio.NewReader(bytes.NewReader(tc.in)), &bytes.Buffer{})
		if len(tc.in) > 0 {
			_, _ = c.r.Peek(len(tc.in)) // fill the buffer as one read would
		}
		if got := c.FrameBuffered(); got != tc.want {
			t.Errorf("%s: FrameBuffered() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
