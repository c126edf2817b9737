package main

import (
	"math"
	"slices"
	"strings"

	"repro/dds"
)

// tailPercentiles are the percentiles a timing may be reported at, lowest
// first.
var tailPercentiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// beyond returns how many of n sorted samples lie above the p-quantile taken
// by the nearest-rank rule.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// highestPercentile returns the highest percentile that has at least
// minBeyond of n samples beyond it, and false when not even the median has.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// quantile returns the nearest-rank p-quantile of values (0 when empty).
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the middle value of values, averaging the two middle ones
// of an even count (0 when empty).
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts the operations a run attempted and how many of them failed.
type tally struct {
	attempted, failed int
}

// op records one attempted operation and whether it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

// check records one exactness check.
func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// errorRate is failed ÷ attempted (0 when nothing was attempted).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// histDelta is the difference of one histogram between two metric snapshots:
// observations, their sum, and cumulative bucket counts.
type histDelta struct {
	count  uint64
	sum    int64
	bounds []int64
	cum    []uint64
}

func histogramDelta(before, after dds.MetricsSnapshot, name string) histDelta {
	a := after.Histogram(name)
	if a == nil {
		return histDelta{}
	}
	d := histDelta{count: a.Count, sum: a.Sum}
	for _, b := range a.Buckets {
		d.bounds = append(d.bounds, b.UpperBound)
		d.cum = append(d.cum, b.Count)
	}
	if b := before.Histogram(name); b != nil {
		d.count -= b.Count
		d.sum -= b.Sum
		for i := range d.cum {
			if i < len(b.Buckets) {
				d.cum[i] -= b.Buckets[i].Count
			}
		}
	}
	return d
}

// mean returns the mean observation of the delta (0 when empty).
func (d histDelta) mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// quantile estimates the p-quantile of the delta's observations by linear
// interpolation inside the bucket that holds it; observations above the last
// bound read as that bound.
func (d histDelta) quantile(p float64) float64 {
	if d.count == 0 {
		return 0
	}
	rank := p * float64(d.count)
	var lo float64
	var prev uint64
	for i, c := range d.cum {
		hi := float64(d.bounds[i])
		if float64(c) >= rank && c > prev {
			return lo + (hi-lo)*(rank-float64(prev))/float64(c-prev)
		}
		lo, prev = hi, c
	}
	return lo
}

// counterSum sums every counter whose name starts with prefix, for families
// with one labelled counter per shard slot.
func counterSum(m dds.MetricsSnapshot, prefix string) uint64 {
	var total uint64
	for _, c := range m.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			total += c.Value
		}
	}
	return total
}

// gaugeMax returns the largest gauge whose name starts with prefix.
func gaugeMax(m dds.MetricsSnapshot, prefix string) int64 {
	var top int64
	for _, g := range m.Gauges {
		if strings.HasPrefix(g.Name, prefix) {
			top = max(top, g.Value)
		}
	}
	return top
}
