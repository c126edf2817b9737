package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// pipeline is the state of a pipelined site connection (Options.Window > 1).
//
// The caller's goroutine owns the connection's site end: it alone runs the
// site node, fills SiteClient.pending, and ships it as sequence-numbered
// batch frames, at most Window in flight at once. A dedicated reader
// goroutine receives the coordinator's replies frames, matches them to
// batches by sequence number (the server echoes each batch's Seq and TCP
// preserves order, so replies must arrive in send order), returns the
// batch's credit to the writer, and posts the frame's messages to a mailbox.
// The reader never touches the site node: the owner applies the mailbox at
// the start of every Observe, EndSlot and Flush and after every credit wait,
// so a reply reaches the node before the next arrival it can affect, and an
// arrival the node filters out costs one atomic load and takes no lock.
//
// The credit window is the backpressure and memory bound: when the
// coordinator falls behind, the writer blocks in ship() after Window
// unacknowledged batches instead of buffering without limit.
//
// The fields the reader writes (sequencing, the retained batches, the
// mailbox, the sticky error) are guarded by SiteClient.mu; the WriteFrame
// and ReadFrame calls run unlocked so that a blocked TCP write can never
// prevent the reader from draining replies (the classic pipelined deadlock).
// The codec keeps separate read and write scratch buffers for the same
// reason.
type pipeline struct {
	cond    *sync.Cond // signals credit returns and failures; cond.L == &SiteClient.mu
	sendSeq uint64     // sequence number of the next batch to ship
	ackSeq  uint64     // sequence number the next replies frame must carry
	slots   []int64    // slot context of each in-flight batch, FIFO
	err     error      // sticky failure; set once, ends the pipeline
	done    chan struct{}

	// mail holds the reply messages the reader has received and the owner
	// has not applied yet, each with the slot of the batch it answers; spare
	// is the owner's emptied buffer, swapped in on every drain so neither
	// side allocates once warm. notice is set, under mu, whenever mail is
	// non-empty or err is set, so the owner's check costs one atomic load.
	mail   []BatchEntry
	spare  []BatchEntry
	notice atomic.Bool

	// unacked retains a copy of every shipped-but-unacknowledged batch,
	// FIFO and parallel to slots. On a cumulative ack the acked prefix is
	// recycled through free (so the steady-state hot path still allocates
	// nothing once warm — at most Window buffers circulate); on a connection
	// failure the retained batches are exactly the offers whose application
	// the client cannot prove, and SiteClient.Unacked hands them to the
	// failover path for replay against a promoted replica.
	unacked [][]BatchEntry
	free    [][]BatchEntry

	// sendTimes records each in-flight batch's ship time (UnixNano), FIFO
	// and parallel to slots, feeding the ack-latency histogram when the
	// cumulative ack arrives.
	sendTimes []int64

	// traces records each in-flight batch's trace context, FIFO and parallel
	// to sendTimes: the reader closes a sampled batch's site_ack span when
	// its cumulative ack arrives. Almost always the zero context — the trace
	// decision happens at ship time and unsampled batches stay zero — and
	// the slice reaches steady-state capacity with sendTimes, so tracing
	// costs the unsampled pipeline no allocations.
	traces []obs.TraceContext

	// wireDirty marks batch frames written but not yet flushed to the
	// socket. Owned by the writer goroutine. Keeping frames buffered while
	// credits remain lets a whole window ride one syscall; the writer MUST
	// flush before blocking on credits or draining, or the coordinator
	// never sees the batches it is expected to ack.
	wireDirty bool

	// stall is the start and end (UnixNano) of the last credit stall, kept
	// until the next batch ships and closes its credit_wait span: a stall
	// usually ends with less than a batch pending, so the batch that waited
	// leaves in a later ship call. Owned by the writer goroutine; zero when
	// no stall is waiting for a batch.
	stall [2]int64
}

// inflight returns the number of unacknowledged batches. Callers hold mu.
func (p *pipeline) inflight() int { return int(p.sendSeq - p.ackSeq) }

// startPipeline arms pipelined mode on a freshly dialed client.
func (c *SiteClient) startPipeline() {
	c.pipe = &pipeline{cond: sync.NewCond(&c.mu), done: make(chan struct{})}
	go c.readLoop()
}

// failPipe records the pipeline's first error, raises the owner's notice
// and wakes every waiter. Callers must hold mu.
func (c *SiteClient) failPipe(err error) {
	if c.pipe.err == nil {
		c.pipe.err = err
	}
	c.pipe.notice.Store(true)
	c.pipe.cond.Broadcast()
}

// takeReplies applies the replies the reader has posted since the last call
// to the site node, in arrival order, buffering whatever the node emits in
// answer, and returns the pipeline's sticky error. Only the owner calls it;
// with nothing posted it is one atomic load.
func (c *SiteClient) takeReplies() error {
	p := c.pipe
	if !p.notice.Load() {
		return nil
	}
	c.mu.Lock()
	mail := p.mail
	p.mail = p.spare[:0]
	err := p.err
	p.notice.Store(err != nil)
	c.mu.Unlock()
	for _, r := range mail {
		c.scratch.Reset()
		c.node.OnMessage(r.Msg, r.Slot, &c.scratch)
		if berr := c.buffer(r.Slot); berr != nil {
			c.mu.Lock()
			c.failPipe(berr)
			c.mu.Unlock()
			err = berr
			break
		}
	}
	clear(mail) // drop the key references
	p.spare = mail[:0]
	return err
}

// pipeObserve is Observe in pipelined mode: apply posted replies, run the
// arrival through the site node, buffer what it emits, and ship any full
// batches without waiting for replies. The arrival reaches the node even
// when the pipeline has failed: its offers then wait in pending, which
// Unacked hands to the failover path, so a recovered Observe never needs
// to feed the node the same arrival again.
func (c *SiteClient) pipeObserve(key string, h float64, hashed bool, slot int64) error {
	err := c.takeReplies()
	c.scratch.Reset()
	c.arrive(key, h, hashed, slot)
	if len(c.scratch.Envelopes()) == 0 {
		return err
	}
	if berr := c.buffer(slot); berr != nil {
		return berr
	}
	if err != nil || len(c.pending) < c.batchSize() {
		return err
	}
	return c.ship(false)
}

// pipeEndSlot is EndSlot in pipelined mode: run the slot-end callback, then
// drain the window so nothing crosses the slot boundary unacknowledged.
func (c *SiteClient) pipeEndSlot(slot int64) error {
	if err := c.takeReplies(); err != nil {
		return err
	}
	c.scratch.Reset()
	c.node.OnSlotEnd(slot, &c.scratch)
	if err := c.buffer(slot); err != nil {
		return err
	}
	return c.pipeFlush()
}

// batchSize is the operative batch size: Options.BatchSize, at least 1.
func (c *SiteClient) batchSize() int {
	return max(c.opts.BatchSize, 1)
}

// flushWire pushes batch frames the codec still buffers onto the socket.
func (c *SiteClient) flushWire() error {
	if !c.pipe.wireDirty {
		return nil
	}
	c.pipe.wireDirty = false
	if err := c.fc.Flush(); err != nil {
		err = fmt.Errorf("wire: flush batches: %w", err)
		c.mu.Lock()
		c.failPipe(err)
		c.mu.Unlock()
		return err
	}
	return nil
}

// awaitCredit blocks until the window has a free credit, flushing buffered
// frames before it sleeps, and then applies the replies that arrived
// meanwhile, so the next batch leaves on the freshest threshold. A sleep is
// kept in pipe.stall for the next shipped batch. It returns the pipeline's
// error.
func (c *SiteClient) awaitCredit() error {
	var stalledAt int64
	c.mu.Lock()
	for c.pipe.inflight() >= c.opts.Window && c.pipe.err == nil {
		if c.pipe.wireDirty {
			c.mu.Unlock()
			if err := c.flushWire(); err != nil {
				return err
			}
			c.mu.Lock()
			continue
		}
		// Out of credits with nothing left to flush: the writer sleeps
		// until the reader returns credit. This is the backpressure the
		// stall counters expose.
		if stalledAt == 0 {
			stalledAt = nowNanos()
			obsCreditStalls.Inc()
		}
		c.pipe.cond.Wait()
	}
	c.mu.Unlock()
	if stalledAt != 0 {
		stallEnd := nowNanos()
		obsCreditStallNs.Observe(stallEnd - stalledAt)
		c.pipe.stall = [2]int64{stalledAt, stallEnd}
	}
	return c.takeReplies()
}

// ship moves pending offers onto the wire as sequence-numbered batch frames.
// It sends only full batches unless all is set, waits for a credit when the
// window is full (backpressure), and never holds mu across a write.
//
// Writes are buffered by the codec; ship flushes only when it is about to
// block (window full) or return — so a burst of credits lets several batch
// frames ride one syscall, and the coordinator always sees every shipped
// frame before the writer goes to sleep (no flush, no progress, deadlock).
func (c *SiteClient) ship(all bool) error {
	batchSize := c.batchSize()
	for {
		if err := c.awaitCredit(); err != nil {
			return err
		}
		n := len(c.pending)
		if n == 0 || (!all && n < batchSize) {
			// While credits remain, frames stay buffered for coalescing;
			// only a drain (all) forces them out now.
			if all {
				return c.flushWire()
			}
			return nil
		}
		n = min(n, batchSize)
		c.mu.Lock()
		// Copy the chunk out (into a recycled buffer when one is free) and
		// compact pending. The copy is retained in unacked until its ack
		// arrives — it is both the frame's payload and the failover replay
		// record.
		var buf []BatchEntry
		if k := len(c.pipe.free); k > 0 {
			buf = c.pipe.free[k-1]
			c.pipe.free = c.pipe.free[:k-1]
		}
		batch := append(buf[:0], c.pending[:n]...)
		rest := copy(c.pending, c.pending[n:])
		c.pending = c.pending[:rest]
		seq := c.pipe.sendSeq
		c.pipe.sendSeq++
		// Trace decision at ship time: a sampled batch's context rides the
		// frame, joins the traces FIFO for the reader's site_ack span, and
		// closes the assembly (site_batch) and credit-wait spans here.
		// Unsampled: one atomic load in StartTrace, zero-value bookkeeping.
		tc := obs.StartTrace()
		batchStart := c.batchStartNs
		c.batchStartNs = 0
		stall := c.pipe.stall
		c.pipe.stall = [2]int64{}
		c.pipe.slots = append(c.pipe.slots, batch[len(batch)-1].Slot)
		c.pipe.sendTimes = append(c.pipe.sendTimes, nowNanos())
		c.pipe.traces = append(c.pipe.traces, tc)
		c.pipe.unacked = append(c.pipe.unacked, batch)
		c.sent += len(batch)
		obsBatchSize.Observe(int64(len(batch)))
		c.mu.Unlock()

		var writeStart int64
		if tc.Sampled() {
			now := nowNanos()
			if batchStart != 0 {
				obs.StageSpan(tc, obs.StageSiteBatch, batchStart, now)
			}
			if stall[0] != 0 {
				obs.StageSpan(tc, obs.StageCreditWait, stall[0], stall[1])
			}
			writeStart = now
		}
		c.wframe = Frame{Type: FrameBatch, Seq: seq, Batch: batch}
		c.wframe.SetTrace(tc)
		if err := c.fc.WriteFrame(&c.wframe); err != nil {
			err = fmt.Errorf("wire: send batch: %w", err)
			c.mu.Lock()
			c.failPipe(err)
			c.mu.Unlock()
			return err
		}
		if tc.Sampled() {
			obs.StageSpan(tc, obs.StageSiteWrite, writeStart, nowNanos())
		}
		c.pipe.wireDirty = true
	}
}

// pipeFlush ships everything buffered and waits until the window is fully
// drained, looping while acknowledged replies generate new offers. On
// return either every offer the site ever emitted has been acknowledged by
// the coordinator, or an error is reported.
func (c *SiteClient) pipeFlush() error {
	for {
		if err := c.ship(true); err != nil { // applies posted replies first
			return err
		}
		c.mu.Lock()
		for c.pipe.inflight() > 0 && c.pipe.err == nil {
			c.pipe.cond.Wait()
		}
		c.mu.Unlock()
		if err := c.takeReplies(); err != nil {
			return err
		}
		if len(c.pending) == 0 {
			return nil
		}
	}
}

// readLoop is the dedicated reply reader of a pipelined connection. It
// verifies reply sequencing, posts each replies frame's messages to the
// owner's mailbox with the slot of the batch they answer, and returns
// credits to the writer. It never calls the site node. It exits on the
// first error or when the connection closes.
//
// A replies frame returns credit, but the reader wakes the credit-stalled
// writer only once no whole frame is left in its read buffer: replies that
// arrived together are all posted first, so the writer, which applies the
// mailbox as it wakes, resumes on the freshest threshold and sends fewer
// offers the coordinator would reject. The wake is never held across a read
// that can block, whatever frame kind came last.
func (c *SiteClient) readLoop() {
	defer close(c.pipe.done)
	var f Frame
	wake := false // credit returned since the writer was last woken
	for {
		if wake && !c.fc.FrameBuffered() {
			c.pipe.cond.Broadcast()
			wake = false
		}
		if err := c.fc.ReadFrame(&f); err != nil {
			c.mu.Lock()
			c.failPipe(fmt.Errorf("wire: read replies: %w", err))
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		switch f.Type {
		case FrameReplies:
			// Acks are cumulative: Seq s acknowledges every in-flight batch
			// up to and including s (the coordinator may fold the acks of
			// several reply-less batches into one frame). A sequence number
			// outside the in-flight range [ackSeq, sendSeq) is a protocol
			// violation — unknown, duplicate, or reordered.
			if c.pipe.inflight() == 0 || f.Seq < c.pipe.ackSeq || f.Seq >= c.pipe.sendSeq {
				c.failPipe(fmt.Errorf("wire: reply sequence %d outside in-flight range [%d, %d)", f.Seq, c.pipe.ackSeq, c.pipe.sendSeq))
				c.mu.Unlock()
				return
			}
			acked := int(f.Seq - c.pipe.ackSeq + 1)
			// Replies belong to the newest acked batch: the coordinator only
			// defers acks of batches that produced none.
			slot := c.pipe.slots[acked-1]
			rest := copy(c.pipe.slots, c.pipe.slots[acked:])
			c.pipe.slots = c.pipe.slots[:rest]
			now := nowNanos()
			for i := 0; i < acked; i++ {
				obsAckLatencyNs.Observe(now - c.pipe.sendTimes[i])
				if tc := c.pipe.traces[i]; tc.Sampled() {
					obs.StageSpan(tc, obs.StageSiteAck, c.pipe.sendTimes[i], now)
				}
			}
			rest = copy(c.pipe.sendTimes, c.pipe.sendTimes[acked:])
			c.pipe.sendTimes = c.pipe.sendTimes[:rest]
			rest = copy(c.pipe.traces, c.pipe.traces[acked:])
			c.pipe.traces = c.pipe.traces[:rest]
			// The acked batches are confirmed applied: recycle their replay
			// buffers for the writer.
			for i := 0; i < acked; i++ {
				c.pipe.free = append(c.pipe.free, c.pipe.unacked[i][:0])
			}
			rest = copy(c.pipe.unacked, c.pipe.unacked[acked:])
			c.pipe.unacked = c.pipe.unacked[:rest]
			c.received += len(f.Msgs)
			if len(f.Msgs) > 0 {
				for _, reply := range f.Msgs {
					c.pipe.mail = append(c.pipe.mail, BatchEntry{Slot: slot, Msg: reply})
				}
				c.pipe.notice.Store(true)
			}
			c.pipe.ackSeq = f.Seq + 1
			wake = true
			c.mu.Unlock()
		case FrameRoutePush:
			// Server-initiated table broadcast: hand it to the callback
			// outside the lock (it may park the table in a mailbox) and keep
			// reading — the push is not an ack and returns no credit.
			c.mu.Unlock()
			c.routePush(&f)
		case FrameError:
			c.failPipe(coordError(f.Error))
			c.mu.Unlock()
			return
		default:
			c.failPipe(errors.New("wire: unexpected frame " + f.Type))
			c.mu.Unlock()
			return
		}
	}
}
