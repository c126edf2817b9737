// Package faultnet is a deterministic fault injector for the wire protocol:
// middleware over the wire.FrameConn seam that drops, duplicates, and delays
// frames, throttles links, and severs either direction of a connection, all
// driven by a seeded PRNG so the same seed replays the same fault sequence.
//
// The package exists to make the self-healing claims testable without real
// networks misbehaving on cue. A chaos test wraps the replication plane's
// sync connections (replica.Options.SyncWrap), scripts partitions and
// delays, and asserts the cluster converges to the exact reference sample —
// under -race, with no manual intervention, reproducibly.
//
// Faults surface as errors, never as silent hangs: a dropped frame poisons
// the write with ErrInjected (the sender learns, as it eventually would of a
// died-mid-send socket) and a severed direction fails with ErrPartitioned.
// The one silent fault is duplication — the receiver gets the frame twice,
// which the protocol must tolerate (offers are idempotent refreshes, state
// frames are absolute) and the regression tests pin.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/wire"
)

// ErrInjected marks a write the injector chose to lose: the frame was not
// delivered and the connection should be treated as dead-mid-send.
var ErrInjected = errors.New("faultnet: injected frame loss")

// ErrPartitioned marks an operation on a severed direction of a connection.
var ErrPartitioned = errors.New("faultnet: link partitioned")

// Scenario scripts the probabilistic faults a wrapped connection injects.
// Probabilities are per written frame and drawn in order (drop, then dup,
// then delay), so they need not sum to one; zero values inject nothing.
// Partitions are not scripted here — they are runtime toggles (Conn.Cut,
// Injector.Partition) so tests control exactly when a link is down.
type Scenario struct {
	Drop     float64       // P(written frame is lost; write fails with ErrInjected)
	Dup      float64       // P(written frame is delivered twice)
	Delay    float64       // P(written frame is held back before delivery)
	MaxDelay time.Duration // upper bound of an injected delay (default 5ms)
	Throttle time.Duration // fixed per-frame cost both ways (a slow link); 0 = full speed
}

// Direction selects which half of a connection a cut severs.
type Direction int

const (
	Send Direction = 1 << iota // writes fail with ErrPartitioned
	Recv                       // reads fail with ErrPartitioned
	Both = Send | Recv
)

// Conn is one fault-injected connection: a wire.FrameConn that applies its
// Scenario to every frame. Safe for one reader and one writer goroutine,
// like the connections it wraps; Cut may be called from any goroutine.
type Conn struct {
	inner wire.FrameConn
	sc    Scenario

	mu    sync.Mutex // guards rng, trace, cuts
	rng   *rand.Rand
	cut   Direction
	trace []string
}

// Wrap builds a fault-injected connection over inner. Same seed + same
// scenario + same frame sequence ⇒ same fault sequence (the decision trace
// pins this).
func Wrap(inner wire.FrameConn, seed int64, sc Scenario) *Conn {
	if sc.MaxDelay <= 0 {
		sc.MaxDelay = 5 * time.Millisecond
	}
	return &Conn{inner: inner, sc: sc, rng: rand.New(rand.NewSource(seed))}
}

// Cut severs (or heals, with on=false) the given direction(s). Severed
// operations fail immediately with ErrPartitioned — never a silent hang.
func (c *Conn) Cut(d Direction, on bool) {
	c.mu.Lock()
	if on {
		c.cut |= d
	} else {
		c.cut &^= d
	}
	c.mu.Unlock()
}

// Trace returns the decisions taken so far, in order: one entry per injected
// fault (clean deliveries are not recorded). The determinism contract is
// that equal seeds and equal traffic produce equal traces.
func (c *Conn) Trace() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.trace...)
}

// decide draws this write's fate and appends any fault to the trace. The
// delay is drawn even when another fault wins so the rng consumes a fixed
// number of draws per frame — keeping traces aligned across scenarios that
// differ only in probabilities.
func (c *Conn) decide(ftype string) (fault string, delay time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.rng.Float64()
	delay = time.Duration(c.rng.Int63n(int64(c.sc.MaxDelay) + 1))
	switch {
	case p < c.sc.Drop:
		fault = "drop"
	case p < c.sc.Drop+c.sc.Dup:
		fault = "dup"
	case p < c.sc.Drop+c.sc.Dup+c.sc.Delay:
		fault = "delay"
	default:
		return "", 0
	}
	c.trace = append(c.trace, fmt.Sprintf("%s %s %s", fault, ftype, delay))
	return fault, delay
}

func (c *Conn) cutHas(d Direction) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cut&d != 0
}

// WriteFrame implements wire.FrameConn with the scenario's write-side faults.
func (c *Conn) WriteFrame(f *wire.Frame) error {
	if c.sc.Throttle > 0 {
		time.Sleep(c.sc.Throttle)
	}
	if c.cutHas(Send) {
		return fmt.Errorf("faultnet: write %s: %w", f.Type, ErrPartitioned)
	}
	switch fault, delay := c.decide(f.Type); fault {
	case "drop":
		return fmt.Errorf("faultnet: write %s: %w", f.Type, ErrInjected)
	case "dup":
		if err := c.inner.WriteFrame(f); err != nil {
			return err
		}
		return c.inner.WriteFrame(f)
	case "delay":
		time.Sleep(delay)
	}
	return c.inner.WriteFrame(f)
}

// ReadFrame implements wire.FrameConn. Reads are faulted only by cuts and
// throttling — loss and reordering are send-side phenomena here, which is
// enough: every protocol dialogue has a frame flowing each way.
func (c *Conn) ReadFrame(f *wire.Frame) error {
	if c.sc.Throttle > 0 {
		time.Sleep(c.sc.Throttle)
	}
	if c.cutHas(Recv) {
		return fmt.Errorf("faultnet: read: %w", ErrPartitioned)
	}
	return c.inner.ReadFrame(f)
}

// Flush implements wire.FrameConn.
func (c *Conn) Flush() error {
	if c.cutHas(Send) {
		return fmt.Errorf("faultnet: flush: %w", ErrPartitioned)
	}
	return c.inner.Flush()
}

// FrameBuffered implements wire.FrameConn. It always answers false: a
// throttled or cut read may wait whatever the inner conn holds.
func (c *Conn) FrameBuffered() bool { return false }

// Injector wraps every connection a subsystem dials with fault-injected
// conns under one scenario, deriving each conn's seed deterministically from
// the base seed and the wrap order (dial order is deterministic in the
// subsystems under test). Its Wrap method matches the shape of
// replica.Options.SyncWrap. Partition state is global: toggling it severs
// every existing conn AND pre-severs conns wrapped while the partition holds
// (a redial during an outage must not heal the link).
type Injector struct {
	seed int64
	sc   Scenario

	mu    sync.Mutex
	n     int64
	cut   Direction
	conns []*Conn
}

// NewInjector builds an injector for one scenario.
func NewInjector(seed int64, sc Scenario) *Injector {
	return &Injector{seed: seed, sc: sc}
}

// Wrap implements the connection-wrapping seam: it returns inner wrapped in
// a new fault-injected conn carrying the injector's scenario and current
// partition state.
func (in *Injector) Wrap(inner wire.FrameConn) wire.FrameConn {
	in.mu.Lock()
	defer in.mu.Unlock()
	// splitmix-style derivation keeps per-conn streams independent.
	derived := in.seed ^ int64(uint64(in.n+1)*0x9E3779B97F4A7C15)
	in.n++
	c := Wrap(inner, derived, in.sc)
	c.cut = in.cut
	in.conns = append(in.conns, c)
	return c
}

// Partition severs (or heals) the given direction(s) of every connection,
// current and future.
func (in *Injector) Partition(d Direction, on bool) {
	in.mu.Lock()
	if on {
		in.cut |= d
	} else {
		in.cut &^= d
	}
	conns := append([]*Conn(nil), in.conns...)
	in.mu.Unlock()
	for _, c := range conns {
		c.Cut(d, on)
	}
}

// Conns returns every connection wrapped so far, in wrap order.
func (in *Injector) Conns() []*Conn {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]*Conn(nil), in.conns...)
}

// Trace concatenates every conn's decision trace in wrap order — the
// injector-level determinism witness.
func (in *Injector) Trace() []string {
	var out []string
	for _, c := range in.Conns() {
		out = append(out, c.Trace()...)
	}
	return out
}
