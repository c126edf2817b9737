package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/dds"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distribute"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// workload is one named configuration of the cluster and its input streams.
// Queries and reshards fall due by the count of elements the triggering
// site has offered, never by the wall clock, so a run does the same work at
// any speed.
type workload struct {
	name       string
	sites      int
	shards     int
	replicas   int
	sampleSize int
	window     int64 // sliding window in slots; 0 is the infinite window
	perSlot    int   // elements per slot of the logical stream (windowed)
	spool      bool  // spool snapshots to a data dir and restore after the ingest
	elements   int   // elements per rep over all sites
	distinct   int   // distinct keys in the stream; 0 makes every element distinct
	// queryEvery and reshardEvery count elements offered by site 0; a
	// control goroutine serves both from a queue beside the ingest (open
	// loop in element time). queriesAfter queries run back to back through
	// site 0's client once the ingest has flushed.
	queryEvery   int
	reshardEvery int
	queriesAfter int
}

const (
	batch    = 64
	pipeline = 8
	// hashSeed is the deployment's shared hash seed; the workload seed only
	// shapes the streams.
	hashSeed = dds.DefaultSeed
)

var workloads = []workload{
	{
		// About 0.02% of elements become offers: parsing, hashing, routing
		// and the site filter do nearly all the work.
		name: "infinite-uniform", sites: 2, shards: 1, sampleSize: 32,
		elements: 2_000_000, distinct: 400_000, queriesAfter: 25,
	},
	{
		// Every element is new and s is large, so offers are frequent and
		// each moves an O(s) sorted insert; sync rounds, spools, handoffs and
		// queries each move a state of ~16k entries.
		name: "large-sample-ops", sites: 1, shards: 2, replicas: 1, sampleSize: 16384,
		spool: true, elements: 300_000, queryEvery: 30_000, reshardEvery: 60_000,
	},
	{
		// The sliding site's window store and the per-slot flush carry the
		// work; neither other workload runs that code.
		name: "sliding-window", sites: 2, shards: 1, sampleSize: 1, window: 100, perSlot: 1000,
		elements: 2_000_000, distinct: 400_000, queriesAfter: 25,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// triggers returns the element counts of site 0 at which queries and
// reshards fall due during one rep of n site-0 elements.
func (w workload) triggers(n int) (queries, reshards []int) {
	for i := 1; i <= n; i++ {
		if w.queryEvery > 0 && i%w.queryEvery == 0 {
			queries = append(queries, i)
		}
		if w.reshardEvery > 0 && i%w.reshardEvery == 0 && i < n {
			reshards = append(reshards, i)
		}
	}
	return queries, reshards
}

// inputs are one run's generated streams: a file per site in the ddsgen
// format, the global arrival order, and the sample the cluster must end with.
type inputs struct {
	files    []string
	perSite  []int
	lastSlot int64
	arrivals []stream.Arrival // kept for the layer replays of a trace run
	want     dds.Sample
}

func (in *inputs) elements() int {
	n := 0
	for _, c := range in.perSite {
		n += c
	}
	return n
}

// generate writes the workload's site stream files for seed into dir.
func generate(w workload, seed uint64, dir string) (*inputs, error) {
	spec := dataset.Uniform(w.elements, w.distinct, seed)
	if w.distinct == 0 {
		spec = dataset.AllDistinct(w.elements, seed)
	}
	// The dataset's own keys are the same for every seed; fixed-width keys
	// drawn from the seed make the key set, and so the sample, differ.
	spec.KeyFormat = func(i int) string {
		return fmt.Sprintf("%016x", hashing.Mix64(seed<<32+uint64(i)))
	}
	elements := spec.Generate()
	if w.window > 0 {
		elements = stream.Reslot(elements, w.perSlot)
	}
	arrivals := distribute.Apply(elements, distribute.NewRandom(w.sites, seed+1))
	perSite := make([][]stream.Element, w.sites)
	for _, a := range arrivals {
		perSite[a.Site] = append(perSite[a.Site], stream.Element{Key: a.Key, Slot: a.Slot})
	}
	in := &inputs{arrivals: arrivals, lastSlot: arrivals[len(arrivals)-1].Slot}
	for i, els := range perSite {
		var buf bytes.Buffer
		if err := stream.Write(&buf, els); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, "site-"+strconv.Itoa(i)+".tsv")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		in.files = append(in.files, path)
		in.perSite = append(in.perSite, len(els))
	}
	in.want = expected(w, arrivals)
	return in, nil
}

// expected is the exact sample the cluster must hold after ingesting
// arrivals: the centralized reference bottom-s for the infinite window, and
// the brute-force window minimum at the last slot for a sliding window.
func expected(w workload, arrivals []stream.Arrival) dds.Sample {
	hasher := hashing.NewMurmur2(hashSeed)
	if w.window == 0 {
		ref := core.NewReference(w.sampleSize, hasher)
		for _, a := range arrivals {
			ref.Observe(a.Key)
		}
		var out dds.Sample
		for _, e := range ref.Sample() {
			out = append(out, dds.Entry{Key: e.Key, Hash: e.Hash})
		}
		return out
	}
	now := arrivals[len(arrivals)-1].Slot
	best := dds.Entry{Hash: math.Inf(1)}
	for key := range stream.WindowDistinct(arrivals, now, w.window) {
		if h := hasher.Unit(key); h < best.Hash {
			best = dds.Entry{Key: key, Hash: h}
		}
	}
	if best.Key == "" {
		return nil
	}
	return dds.Sample{best}
}

// sampleBytes renders a sample canonically (key and hash bits per line) so
// two samples compare byte for byte. Expiry is left out: the sliding-window
// protocol reports a repeat arrival of the current minimum only once the
// expiry the coordinator holds has passed (Algorithm 3), so that expiry may
// be earlier than the element's last live slot while the sample is exact.
func sampleBytes(s dds.Sample) []byte {
	var b []byte
	for _, e := range s {
		b = append(b, e.Key...)
		b = append(b, '\t')
		b = strconv.AppendUint(b, math.Float64bits(e.Hash), 16)
		b = append(b, '\n')
	}
	return b
}

func sameSample(got, want dds.Sample) bool {
	return bytes.Equal(sampleBytes(got), sampleBytes(want))
}
