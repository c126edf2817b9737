package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/dds"
	"repro/internal/core"
	"repro/internal/stream"
)

// offerSample is how often a traced rep records a span around an Offer
// call: one call in offerSample.
const offerSample = 101

// restoreTimeout bounds how long a restored cluster may take to answer with
// the reference sample.
const restoreTimeout = 10 * time.Second

// repResult is what one rep measured: set-up, one full ingest of every site
// file with its queries and reshards, the exactness checks, and (with a
// spool) the restore.
type repResult struct {
	traced   bool
	setup    time.Duration
	ingest   time.Duration
	elements int
	read     time.Duration // stream.Read time summed over sites
	peakRSS  float64       // MiB
	flush    []float64     // final Flush call per site, ns
	endSlot  []float64     // EndSlot calls, ns
	queryLat []float64     // queries timed from when they fell due, ns
	queryRun []float64     // query calls alone, ns
	late     []float64     // how late each query started after falling due, ns
	reshards []*dds.ReshardReport
	restore  time.Duration
	messages int // offers + replies the cluster counted during the ingest
	before   dds.MetricsSnapshot
	after    dds.MetricsSnapshot
	state    stateCost
	ops      tally
	mismatch []string
}

// stateCost is what encoding and decoding the largest shard snapshot cost.
type stateCost struct {
	encode, decode time.Duration
	bytes, entries int
}

// repEnv is what a rep needs beyond its workload and inputs.
type repEnv struct {
	run    int
	dir    string // scratch directory for this rep's spool
	traced bool
	rec    *recorder
}

func (e repEnv) traceRate() dds.Option {
	if e.traced {
		return dds.WithTraceSampling(1)
	}
	return dds.WithTraceSampling(0)
}

func serveConfig(w workload) dds.Config {
	return dds.Config{Listen: "127.0.0.1:0", Shards: w.shards, SampleSize: w.sampleSize, Seed: hashSeed}
}

func serveOptions(w workload, env repEnv) []dds.Option {
	opts := []dds.Option{env.traceRate()}
	if w.replicas > 0 {
		opts = append(opts, dds.WithReplicas(w.replicas))
	}
	if w.window > 0 {
		opts = append(opts, dds.WithWindow(w.window))
	}
	if w.spool {
		opts = append(opts, dds.WithDataDir(env.dir))
	}
	return opts
}

func clientOptions(w workload, env repEnv) []dds.Option {
	opts := []dds.Option{dds.WithBatch(batch), dds.WithPipelining(pipeline), env.traceRate()}
	if w.window > 0 {
		opts = append(opts, dds.WithWindow(w.window))
	}
	return opts
}

// setUp starts the cluster and opens one attached client per site: the span
// setup_s times.
func setUp(ctx context.Context, w workload, env repEnv, parent *openSpan, ops *tally) (*dds.Cluster, []*dds.Client, time.Duration, error) {
	start := time.Now()
	sp := env.rec.start(env.run, parent, "Serve")
	cl, err := dds.Serve(ctx, serveConfig(w), serveOptions(w, env)...)
	sp.end()
	ops.op(err)
	if err != nil {
		return nil, nil, 0, err
	}
	var clients []*dds.Client
	for i := 0; i < w.sites; i++ {
		sp := env.rec.start(env.run, parent, "Open")
		cfg := dds.Config{Coordinators: cl.Groups(), SiteID: i, SampleSize: w.sampleSize, Seed: hashSeed}
		c, err := dds.Open(ctx, cfg, clientOptions(w, env)...)
		sp.end()
		ops.op(err)
		if err != nil {
			closeAll(clients, nil)
			_ = cl.Close()
			return nil, nil, 0, err
		}
		clients = append(clients, c)
	}
	cl.Attach(clients...)
	return cl, clients, time.Since(start), nil
}

// closeAll closes every client and counts each Close as an operation.
func closeAll(clients []*dds.Client, ops *tally) {
	for _, c := range clients {
		err := c.Close()
		if ops != nil {
			ops.op(err)
		}
	}
}

// setupOnly runs one set-up and tears it down: extra setup_s samples.
func setupOnly(ctx context.Context, w workload, env repEnv) (time.Duration, tally) {
	var ops tally
	cl, clients, d, err := setUp(ctx, w, env, nil, &ops)
	if err != nil {
		return 0, ops
	}
	closeAll(clients, &ops)
	ops.op(cl.Close())
	return d, ops
}

// runRep runs one rep of w over in.
func runRep(ctx context.Context, w workload, in *inputs, env repEnv) *repResult {
	res := &repResult{traced: env.traced}
	runtime.GC()
	debug.FreeOSMemory()
	repSpan := env.rec.start(env.run, nil, "rep")
	defer repSpan.end()

	cl, clients, setup, err := setUp(ctx, w, env, repSpan, &res.ops)
	if err != nil {
		res.mismatch = append(res.mismatch, "set-up: "+err.Error())
		return res
	}
	res.setup = setup
	clusterOpen := true
	defer func() {
		if clusterOpen {
			_ = cl.Close()
		}
	}()

	res.before = dds.Metrics()
	offers0, replies0, _ := cl.Stats()
	stopRSS, peak := sampleRSS()
	ingest := env.rec.start(env.run, repSpan, "ingest")
	start := time.Now()

	var ctrl *controller
	if w.queryEvery > 0 || w.reshardEvery > 0 {
		ctrl = &controller{cl: cl, w: w, env: env, parent: ingest, done: make(chan struct{})}
	}
	sites := make([]siteRun, w.sites)
	var wg sync.WaitGroup
	for i := 1; i < w.sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sites[i] = runSite(clients[i], in.files[i], w, env, ingest, nil)
		}(i)
	}
	sites[0] = runSite(clients[0], in.files[0], w, env, ingest, ctrl)
	wg.Wait()
	ingest.end()
	stopRSS()
	res.peakRSS = <-peak

	var last time.Time
	for _, s := range sites {
		res.ops.add(s.ops)
		res.elements += s.n
		res.read += s.read
		res.flush = append(res.flush, s.flush)
		res.endSlot = append(res.endSlot, s.endSlot...)
		if s.done.After(last) {
			last = s.done
		}
	}
	res.ingest = last.Sub(start)
	if ctrl != nil {
		<-ctrl.done
		res.ops.add(ctrl.ops)
		res.queryLat, res.queryRun, res.late = ctrl.lat, ctrl.run, ctrl.late
		res.reshards = ctrl.reports
		res.mismatch = append(res.mismatch, ctrl.problems...)
	}
	res.after = dds.Metrics()
	offers1, replies1, _ := cl.Stats()
	res.messages = offers1 - offers0 + replies1 - replies0
	for i := 0; i < w.queriesAfter; i++ {
		closedQuery(ctx, clients[0], env, repSpan, res)
	}

	// Exactness: the merged sample must equal the reference byte for byte.
	sp := env.rec.start(env.run, repSpan, "Query")
	got, err := finalSample(ctx, w, cl, clients[0], in)
	sp.end()
	res.ops.op(err)
	ok := err == nil && sameSample(got, in.want)
	res.ops.check(ok)
	if !ok {
		res.mismatch = append(res.mismatch, fmt.Sprintf("merged sample differs from the reference after the ingest (%d entries, want %d; err %v)", len(got), len(in.want), err))
	}
	if env.traced {
		res.state = measureState(ctx, clients[0], &res.ops)
	}

	sp = env.rec.start(env.run, repSpan, "Close")
	closeAll(clients, &res.ops)
	res.ops.op(cl.Close())
	clusterOpen = false
	sp.end()

	if w.spool {
		sp = env.rec.start(env.run, repSpan, "restore")
		res.restore, err = restore(ctx, w, in, env)
		sp.end()
		res.ops.op(err)
		res.ops.check(err == nil)
		if err != nil {
			res.mismatch = append(res.mismatch, "after restore: "+err.Error())
		}
	}
	return res
}

// finalSample reads the merged sample the exactness check compares: as of
// the stream's last slot for a sliding window.
func finalSample(ctx context.Context, w workload, cl *dds.Cluster, c *dds.Client, in *inputs) (dds.Sample, error) {
	if w.window == 0 {
		return c.Query(ctx)
	}
	cfg := dds.Config{Coordinators: cl.Groups(), SampleSize: w.sampleSize, Seed: hashSeed}
	return dds.QueryAsOf(ctx, in.lastSlot, cfg, dds.WithWindow(w.window))
}

// restore starts a cluster from the rep's spool and times it until a query
// returns the reference sample.
func restore(ctx context.Context, w workload, in *inputs, env repEnv) (time.Duration, error) {
	start := time.Now()
	cl, err := dds.Serve(ctx, serveConfig(w), serveOptions(w, env)...)
	if err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	defer cl.Close()
	cfg := dds.Config{Coordinators: cl.Groups(), SampleSize: w.sampleSize, Seed: hashSeed}
	for {
		got, err := dds.Query(ctx, cfg)
		if err == nil && sameSample(got, in.want) {
			return time.Since(start), nil
		}
		if time.Since(start) > restoreTimeout {
			return 0, fmt.Errorf("restored cluster did not return the reference sample within %v (%d entries, want %d; err %v)", restoreTimeout, len(got), len(in.want), err)
		}
		time.Sleep(time.Millisecond)
	}
}

// measureState times decoding and re-encoding the largest shard snapshot.
func measureState(ctx context.Context, c *dds.Client, ops *tally) stateCost {
	shards, err := c.Snapshot(ctx)
	ops.op(err)
	var blob []byte
	for _, s := range shards {
		if len(s.Data) > len(blob) {
			blob = s.Data
		}
	}
	if len(blob) == 0 {
		return stateCost{}
	}
	const reps = 5
	var st core.State
	start := time.Now()
	for i := 0; i < reps; i++ {
		st, err = core.DecodeState(blob)
	}
	decode := time.Since(start) / reps
	ops.op(err)
	if err != nil {
		return stateCost{}
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		blob = core.EncodeState(st)
	}
	return stateCost{encode: time.Since(start) / reps, decode: decode, bytes: len(blob), entries: core.StateEntryCount(st)}
}

// siteRun is what one site measured while replaying its stream file.
type siteRun struct {
	n       int
	read    time.Duration
	flush   float64
	endSlot []float64
	done    time.Time // when the final Flush returned
	ops     tally
}

// runSite replays one site's stream file exactly as ddsnode's site role
// does: read the whole file, offer every element, end each slot of a
// sliding window, and flush. Site 0 also puts the workload's queries and
// reshards on ctrl's queue as they fall due.
func runSite(c *dds.Client, file string, w workload, env repEnv, parent *openSpan, ctrl *controller) siteRun {
	var out siteRun
	sp := env.rec.start(env.run, parent, "site")
	defer sp.end()

	rd := env.rec.start(env.run, sp, "stream.Read")
	start := time.Now()
	elements, err := readStream(file)
	out.read = time.Since(start)
	rd.end()
	out.ops.op(err)
	if err != nil {
		ctrl.finish()
		return out
	}

	var queries, reshards []int
	if ctrl != nil {
		queries, reshards = w.triggers(len(elements))
		ctrl.start(len(queries) + len(reshards))
	}
	qi, ri := 0, 0
	last := int64(-1)
	for i, e := range elements {
		if w.window > 0 && last >= 0 && e.Slot > last {
			for slot := last; slot < e.Slot; slot++ {
				es := env.rec.start(env.run, sp, "EndSlot")
				t := time.Now()
				err := c.EndSlot(slot)
				out.endSlot = append(out.endSlot, float64(time.Since(t)))
				es.end()
				out.ops.op(err)
				if err != nil {
					ctrl.finish()
					return out
				}
			}
		}
		var osp *openSpan
		if i%offerSample == 0 {
			osp = env.rec.start(env.run, sp, "Offer")
		}
		err := c.Offer(e.Key, e.Slot)
		osp.end()
		out.ops.op(err)
		if err != nil {
			ctrl.finish()
			return out
		}
		out.n++
		last = e.Slot
		n := i + 1
		if qi < len(queries) && queries[qi] == n {
			qi++
			ctrl.fire(event{due: time.Now()})
		}
		if ri < len(reshards) && reshards[ri] == n {
			ctrl.fire(event{reshard: true, seq: ri, due: time.Now()})
			ri++
		}
	}
	ctrl.finish()
	if w.window > 0 && last >= 0 {
		err := c.EndSlot(last)
		out.ops.op(err)
	}
	fl := env.rec.start(env.run, sp, "Flush")
	t := time.Now()
	err = c.Flush()
	out.flush = float64(time.Since(t))
	out.done = time.Now()
	fl.end()
	out.ops.op(err)
	if ctrl != nil {
		// A pending reshard waits for this client to flip its routing table
		// at its next operation, so keep operating until the control
		// goroutine has drained its queue.
		for waiting := true; waiting; {
			select {
			case <-ctrl.done:
				waiting = false
			case <-time.After(time.Millisecond):
				out.ops.op(c.Flush())
			}
		}
	}
	return out
}

func readStream(path string) ([]stream.Element, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stream.Read(f)
}

// closedQuery queries through the client and records the latency (closed
// loop: the next query waits for this answer, so none is ever late).
func closedQuery(ctx context.Context, c *dds.Client, env repEnv, parent *openSpan, res *repResult) {
	sp := env.rec.start(env.run, parent, "Query")
	start := time.Now()
	_, err := c.Query(ctx)
	d := float64(time.Since(start))
	sp.end()
	res.ops.op(err)
	if err != nil {
		res.mismatch = append(res.mismatch, "query: "+err.Error())
		return
	}
	res.queryLat = append(res.queryLat, d)
	res.queryRun = append(res.queryRun, d)
	res.late = append(res.late, 0)
}

// event is a query or reshard that fell due at site 0.
type event struct {
	reshard bool
	seq     int // reshard number in the rep: even splits, odd merges
	due     time.Time
}

// controller is the goroutine that serves due queries and reshards
// beside the ingest. Its queries go through the cluster's current groups
// rather than an attached client, so a reshard never waits for it.
type controller struct {
	cl     *dds.Cluster
	w      workload
	env    repEnv
	parent *openSpan
	events chan event
	done   chan struct{}
	once   sync.Once

	ops      tally
	lat      []float64
	run      []float64
	late     []float64
	reports  []*dds.ReshardReport
	problems []string
}

// start launches the goroutine with a queue that holds every event of the
// rep, so firing never blocks the ingest.
func (c *controller) start(events int) {
	c.events = make(chan event, events)
	go c.serve()
}

func (c *controller) fire(e event) {
	if c != nil {
		c.events <- e
	}
}

// finish closes the queue; the goroutine drains it and closes done. Before
// start it only closes done.
func (c *controller) finish() {
	if c == nil {
		return
	}
	c.once.Do(func() {
		if c.events == nil {
			close(c.done)
			return
		}
		close(c.events)
	})
}

func (c *controller) serve() {
	defer close(c.done)
	ctx := context.Background()
	for e := range c.events {
		start := time.Now()
		c.late = append(c.late, float64(start.Sub(e.due)))
		if e.reshard {
			name, plan := "Split", func() (*dds.ReshardReport, error) { return c.cl.Split(0, 0.5) }
			if e.seq%2 == 1 {
				name, plan = "MergeAt", func() (*dds.ReshardReport, error) { return c.cl.MergeAt(0) }
			}
			sp := c.env.rec.start(c.env.run, c.parent, name)
			rep, err := plan()
			sp.end()
			c.ops.op(err)
			if err != nil {
				c.problems = append(c.problems, name+": "+err.Error())
				continue
			}
			c.reports = append(c.reports, rep)
			continue
		}
		groups := c.cl.Groups()
		if missing := unreached(c.cl, groups); missing != "" {
			c.ops.check(false)
			c.problems = append(c.problems, "query would miss live shards "+missing)
			continue
		}
		sp := c.env.rec.start(c.env.run, c.parent, "Query")
		cfg := dds.Config{Coordinators: groups, SampleSize: c.w.sampleSize, Seed: hashSeed}
		_, err := dds.Query(ctx, cfg)
		sp.end()
		c.ops.op(err)
		if err != nil {
			c.problems = append(c.problems, "query: "+err.Error())
			continue
		}
		c.lat = append(c.lat, float64(time.Since(e.due)))
		c.run = append(c.run, float64(time.Since(start)))
	}
}

// unreached lists the live shards (slots owning a range) that groups does
// not address, or "" when a query over groups reaches every one.
func unreached(cl *dds.Cluster, groups [][]string) string {
	_, ranges := cl.Ranges()
	var missing []string
	for _, r := range ranges {
		if r.Slot >= len(groups) || len(groups[r.Slot]) == 0 {
			missing = append(missing, strconv.Itoa(r.Slot))
		}
	}
	return strings.Join(missing, ",")
}

// sampleRSS samples the process's resident memory until stop is called and
// then sends the peak in MiB.
func sampleRSS() (stop func(), peak <-chan float64) {
	quit := make(chan struct{})
	out := make(chan float64, 1)
	go func() {
		top := 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			top = max(top, rssPages())
			select {
			case <-quit:
				out <- float64(top*os.Getpagesize()) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(quit) }, out
}

// rssPages reads the resident page count from /proc/self/statm.
func rssPages() int {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	n, _ := strconv.Atoi(fields[1])
	return n
}
