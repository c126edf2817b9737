package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/dds"
)

func TestHighestPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond(tc.n, got), got*100)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := quantile(values, p); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestTallyCountsEveryOperationAndCheck(t *testing.T) {
	var a tally
	a.op(nil)
	a.op(errors.New("offer refused"))
	a.check(true)
	a.check(false)
	if a.attempted != 4 || a.failed != 2 {
		t.Fatalf("tally = %+v, want 4 attempted, 2 failed", a)
	}
	var b tally
	b.op(nil)
	b.op(nil)
	b.op(nil)
	b.op(nil)
	a.add(b)
	if got := a.errorRate(); got != 0.25 {
		t.Fatalf("error rate = %v, want 0.25", got)
	}
	if (tally{}).errorRate() != 0 {
		t.Fatal("an empty tally must have error rate 0")
	}
	rep := &repResult{elements: 10, ingest: time.Second, messages: 1, peakRSS: 1}
	m := endToEnd([]*repResult{rep}, []float64{1e9}, a)
	if got := m["success_rate"].Value; got != 0.75 {
		t.Fatalf("success_rate = %v, want 0.75", got)
	}
}

func TestHistogramDeltaQuantileInterpolates(t *testing.T) {
	snap := func(counts ...uint64) dds.MetricsSnapshot {
		h := dds.HistogramStat{Name: "h"}
		bounds := []int64{10, 20, 40}
		for i, c := range counts {
			h.Buckets = append(h.Buckets, dds.HistogramBucket{UpperBound: bounds[i], Count: c})
		}
		h.Count = counts[len(counts)-1]
		return dds.MetricsSnapshot{Histograms: []dds.HistogramStat{h}}
	}
	// 10 observations in (10, 20] between the snapshots, none elsewhere.
	d := histogramDelta(snap(5, 5, 5), snap(5, 15, 15), "h")
	if d.count != 10 {
		t.Fatalf("delta count = %d, want 10", d.count)
	}
	if got := d.quantile(0.5); got != 15 {
		t.Fatalf("delta p50 = %v, want 15 (middle of the (10, 20] bucket)", got)
	}
}

// small shrinks a workload so its inputs generate in milliseconds.
func small(w workload) workload {
	w.elements = 20_000
	if w.distinct > 0 {
		w.distinct = 5_000
	}
	return w
}

func TestSeedGivesIdenticalInputsAndTriggers(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := small(w)
			gen := func(seed uint64) (*inputs, [][]byte) {
				in, err := generate(w, seed, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				var files [][]byte
				for _, f := range in.files {
					data, err := os.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					files = append(files, data)
				}
				return in, files
			}
			a, fa := gen(7)
			b, fb := gen(7)
			c, fc := gen(8)
			if len(fa) != w.sites {
				t.Fatalf("%d stream files, want one per site (%d)", len(fa), w.sites)
			}
			for i := range fa {
				if !bytes.Equal(fa[i], fb[i]) {
					t.Errorf("site %d: same seed wrote different stream files", i)
				}
			}
			if slices.EqualFunc(fa, fc, bytes.Equal) {
				t.Error("seeds 7 and 8 wrote identical stream files")
			}
			if !sameSample(a.want, b.want) || len(a.want) == 0 {
				t.Errorf("same seed gave different or empty reference samples")
			}
			if a.elements() != w.elements || c.elements() != w.elements {
				t.Errorf("inputs hold %d and %d elements, want %d", a.elements(), c.elements(), w.elements)
			}
			qa, ra := w.triggers(a.perSite[0])
			qb, rb := w.triggers(b.perSite[0])
			if !slices.Equal(qa, qb) || !slices.Equal(ra, rb) {
				t.Error("same seed gave different query or reshard trigger points")
			}
		})
	}
}

func TestTriggersFallDueByElementCount(t *testing.T) {
	w, err := findWorkload("large-sample-ops")
	if err != nil {
		t.Fatal(err)
	}
	queries, reshards := w.triggers(w.elements)
	if len(queries) != w.elements/w.queryEvery || queries[0] != w.queryEvery {
		t.Errorf("queries fall due at %v, want every %d elements", queries, w.queryEvery)
	}
	// Reshards alternate split and merge; an even count leaves the table
	// with the shards it started with, and none falls due at the last
	// element, when the site has stopped offering.
	if len(reshards) == 0 || len(reshards)%2 != 0 || slices.Contains(reshards, w.elements) {
		t.Errorf("reshards fall due at %v", reshards)
	}
	if q, r := (workload{queriesAfter: 5}).triggers(20); q != nil || r != nil {
		t.Errorf("a workload that queries after the ingest got triggers %v, %v", q, r)
	}
	if _, r := (workload{queryEvery: 5}).triggers(20); r != nil {
		t.Errorf("a workload without reshards got reshard triggers %v", r)
	}
}

func TestSampleBytesComparesKeysAndHashes(t *testing.T) {
	base := dds.Sample{{Key: "a", Hash: 0.25}}
	for _, other := range []dds.Sample{
		{{Key: "b", Hash: 0.25}},
		{{Key: "a", Hash: 0.2500000001}},
		append(slices.Clone(base), dds.Entry{Key: "c", Hash: 0.5}),
		nil,
	} {
		if sameSample(base, other) {
			t.Errorf("%v and %v compare equal", base, other)
		}
	}
	if !sameSample(base, slices.Clone(base)) {
		t.Error("a sample differs from its copy")
	}
}

func TestRecorderKeepsParentsAndRuns(t *testing.T) {
	rec := &recorder{}
	root := rec.start(3, nil, "rep")
	child := rec.start(3, root, "Offer")
	child.end()
	root.end()
	if got := len(rec.durations("Offer")); got != 1 {
		t.Fatalf("%d Offer spans, want 1", got)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.spans {
		if s.Run != 3 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
		if s.Name == "Offer" && s.Parent != root.id() {
			t.Errorf("Offer span's parent is %d, want %d", s.Parent, root.id())
		}
	}
	var none *recorder
	none.start(0, nil, "x").end() // untraced reps record nothing
}
