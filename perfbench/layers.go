package main

import (
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/sliding"
	"repro/internal/stats"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// traceStages are the dds_trace_stage_ns stages the traced run reports.
var traceStages = []string{
	"site_batch", "credit_wait", "site_write", "site_ack", "coord_decode",
	"coord_lock", "coord_offer", "sync_round", "replica_apply", "route_push",
}

// endToEnd computes the user-facing metrics from the untraced reps.
func endToEnd(reps []*repResult, setups []float64, ops tally) map[string]metric {
	var eps, msgs, rss, lat []float64
	for _, r := range reps {
		eps = append(eps, float64(r.elements)/r.ingest.Seconds())
		msgs = append(msgs, float64(r.messages)/float64(r.elements))
		rss = append(rss, r.peakRSS)
		lat = append(lat, r.queryLat...)
	}
	return map[string]metric{
		"ingest_eps":       {median(eps), "elements/s"},
		"msgs_per_element": {median(msgs), "messages/element"},
		"query_p50_ms":     {quantile(lat, 0.5) / 1e6, "ms"},
		"query_p90_ms":     {quantile(lat, 0.9) / 1e6, "ms"},
		"success_rate":     {1 - ops.errorRate(), "fraction"},
		"setup_s":          {median(setups) / 1e9, "s"},
		"peak_rss_mb":      {median(rss), "MiB"},
	}
}

// perLayer computes the per-layer metrics of a trace run: counter and
// histogram deltas from its untraced reps, span and stage timings from its
// traced reps, and the layer replays.
func perLayer(w workload, in *inputs, untraced, traced []*repResult, rec *recorder) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	each := func(reps []*repResult, f func(r *repResult) float64) float64 {
		var vs []float64
		for _, r := range reps {
			vs = append(vs, f(r))
		}
		return median(vs)
	}
	perElement := func(r *repResult, v float64) float64 { return v / float64(r.elements) }
	ingestNs := func(r *repResult) float64 { return float64(r.ingest.Nanoseconds()) }
	counter := func(r *repResult, prefix string) float64 {
		return float64(counterSum(r.after, prefix) - counterSum(r.before, prefix))
	}
	hist := func(r *repResult, name string) histDelta { return histogramDelta(r.before, r.after, name) }

	// stream
	put("stream.read_ns_per_element", each(untraced, func(r *repResult) float64 {
		return perElement(r, float64(r.read.Nanoseconds()))
	}), "ns")
	var fileBytes int64
	for _, f := range in.files {
		if st, err := os.Stat(f); err == nil {
			fileBytes += st.Size()
		}
	}
	put("stream.bytes_per_element", float64(fileBytes)/float64(in.elements()), "bytes")

	// hashing and cluster routing replays
	keys := make([]string, len(in.arrivals))
	for i, a := range in.arrivals {
		keys[i] = a.Key
	}
	hasher := hashing.NewMurmur2(hashSeed)
	put("hashing.unit_ns", replayNs(len(keys), func() {
		var sink float64
		for _, k := range keys {
			sink += hasher.Unit(k)
		}
		floatSink = sink
	}), "ns")
	router := cluster.NewShardRouter(w.shards, hasher)
	table := router.Table()
	put("cluster.route_ns", replayNs(len(keys), func() {
		sink := 0
		for _, k := range keys {
			sink += table.Lookup(router.RouteHash(k))
		}
		intSink = sink
	}), "ns")
	var plans []float64
	var stalls, handoff []float64
	for _, r := range untraced {
		for _, p := range r.reshards {
			plans = append(plans, float64(p.Total))
			stalls = append(stalls, float64(p.CutoverStall))
			handoff = append(handoff, float64(p.WarmEntries+p.SettleEntries))
		}
	}
	put("cluster.reshard_ms", median(plans)/1e6, "ms")
	put("cluster.cutover_stall_ms", median(stalls)/1e6, "ms")
	put("cluster.handoff_entries", median(handoff), "entries")

	// core: the one-thread sequential baseline, the coordinator insert, the
	// sample's admit rate, state codec costs and conformance to the bound
	start := time.Now()
	sim, err := core.NewSystem(w.sites, w.sampleSize, hasher).Runner(0, 0).RunSequential(in.arrivals)
	if err == nil {
		put("core.sim_ns_per_element", float64(time.Since(start).Nanoseconds())/float64(len(in.arrivals)), "ns")
		put("core.sim_msgs_per_element", float64(sim.TotalMessages())/float64(len(in.arrivals)), "messages/element")
	}
	put("core.coord_offer_ns", coordOfferNs(keys, w.sampleSize, hasher), "ns")
	put("core.admit_rate", each(untraced, func(r *repResult) float64 {
		offers := counter(r, "dds_shard_offers_total")
		if offers == 0 {
			return 0
		}
		return counter(r, "dds_shard_sample_churn_total") / offers
	}), "fraction")
	put("core.state_encode_us", each(traced, func(r *repResult) float64 { return float64(r.state.encode.Nanoseconds()) / 1e3 }), "us")
	put("core.state_decode_us", each(traced, func(r *repResult) float64 { return float64(r.state.decode.Nanoseconds()) / 1e3 }), "us")
	put("core.state_bytes_per_entry", each(traced, func(r *repResult) float64 {
		if r.state.entries == 0 {
			return 0
		}
		return float64(r.state.bytes) / float64(r.state.entries)
	}), "bytes")
	bound := messageBound(w, keys, router)
	put("core.msgs_over_bound", each(untraced, func(r *repResult) float64 { return float64(r.messages) / bound }), "ratio")

	// wire
	put("wire.bytes_per_element", each(untraced, func(r *repResult) float64 {
		return perElement(r, counter(r, "dds_wire_bytes_out_total")+counter(r, "dds_wire_bytes_in_total"))
	}), "bytes")
	put("wire.frames_per_element", each(untraced, func(r *repResult) float64 {
		return perElement(r, counter(r, "dds_wire_frames_encoded_total"))
	}), "frames/element")
	put("wire.batch_fill", each(untraced, func(r *repResult) float64 {
		return hist(r, "dds_wire_batch_entries").mean() / batch
	}), "fraction")
	put("wire.credit_stall_share", each(untraced, func(r *repResult) float64 {
		return float64(hist(r, "dds_wire_credit_stall_ns").sum) / (ingestNs(r) * float64(w.sites))
	}), "fraction")
	put("wire.ack_p50_us", each(untraced, func(r *repResult) float64 {
		return hist(r, "dds_wire_ack_latency_ns").quantile(0.5) / 1e3
	}), "us")

	// replica
	put("replica.sync_rounds_per_s", each(untraced, func(r *repResult) float64 {
		return counter(r, "dds_replica_sync_rounds_total") / r.ingest.Seconds()
	}), "1/s")
	put("replica.sync_bytes_per_s", each(untraced, func(r *repResult) float64 {
		return counter(r, "dds_replica_sync_bytes_total") / r.ingest.Seconds()
	}), "bytes/s")
	put("replica.sync_round_ms", each(untraced, func(r *repResult) float64 {
		return hist(r, "dds_replica_sync_round_ns").mean() / 1e6
	}), "ms")
	put("replica.lag_ms", each(untraced, func(r *repResult) float64 {
		return float64(gaugeMax(r.after, "dds_replica_sync_lag_ns")) / 1e6
	}), "ms")

	// durable
	put("durable.spool_ms", each(untraced, func(r *repResult) float64 {
		return hist(r, "dds_durable_spool_ns").mean() / 1e6
	}), "ms")
	put("durable.bytes_per_snapshot", each(untraced, func(r *repResult) float64 {
		snaps := counter(r, "dds_durable_snapshots_total")
		if snaps == 0 {
			return 0
		}
		return counter(r, "dds_durable_bytes_total") / snaps
	}), "bytes")
	put("durable.spool_busy_share", each(untraced, func(r *repResult) float64 {
		return float64(hist(r, "dds_durable_spool_ns").sum) / ingestNs(r)
	}), "fraction")
	put("durable.restore_ms", each(untraced, func(r *repResult) float64 { return float64(r.restore.Nanoseconds()) / 1e6 }), "ms")

	// sliding
	var slidingNs, endSlot float64
	if w.window > 0 {
		start := time.Now()
		if _, err := sliding.NewSystem(w.sites, w.window, hasher, 1).Runner(0, 0).RunSequential(in.arrivals); err == nil {
			slidingNs = float64(time.Since(start).Nanoseconds()) / float64(len(in.arrivals))
		}
		var calls []float64
		for _, r := range untraced {
			calls = append(calls, r.endSlot...)
		}
		endSlot = median(calls) / 1e3
	}
	put("sliding.sim_ns_per_element", slidingNs, "ns")
	put("sliding.end_slot_us", endSlot, "us")

	// dds: the benchmark's own spans around its calls in the traced reps
	offers := rec.durations("Offer")
	put("dds.offer_ns_p50", quantile(offers, 0.5), "ns")
	put("dds.offer_ns_p99", quantile(offers, 0.99), "ns")
	var flushes, queries []float64
	for _, r := range traced {
		flushes = append(flushes, r.flush...)
		queries = append(queries, r.queryRun...)
	}
	put("dds.flush_ms", median(flushes)/1e6, "ms")
	put("dds.query_ms", median(queries)/1e6, "ms")

	// obs: tracing overhead and the stage histograms of the traced reps
	eps := func(r *repResult) float64 { return float64(r.elements) / r.ingest.Seconds() }
	put("obs.trace_overhead", each(traced, eps)/each(untraced, eps), "ratio")
	for _, stage := range traceStages {
		name := `dds_trace_stage_ns{stage="` + stage + `"}`
		put("trace."+stage+"_us", each(traced, func(r *repResult) float64 {
			return hist(r, name).quantile(0.5) / 1e3
		}), "us")
	}
	return m
}

var (
	floatSink float64
	intSink   int
)

// replayNs runs pass three times and returns the median time per item.
func replayNs(items int, pass func()) float64 {
	var times []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		pass()
		times = append(times, float64(time.Since(start).Nanoseconds())/float64(items))
	}
	return median(times)
}

// coordOfferNs replays, into a fresh InfiniteCoordinator of sample size s,
// the offers a single site would send it: each key whose hash beats the
// coordinator's current threshold. It returns the time per offer.
func coordOfferNs(keys []string, s int, hasher *hashing.Hasher) float64 {
	probe := core.NewInfiniteCoordinator(s)
	var offers []core.Offer
	for _, k := range keys {
		o := core.Offer{Key: k, Hash: hasher.Unit(k)}
		if o.Hash < probe.Threshold() {
			probe.Offer(o)
			offers = append(offers, o)
		}
	}
	if len(offers) == 0 {
		return 0
	}
	return replayNs(len(offers), func() {
		c := core.NewInfiniteCoordinator(s)
		for _, o := range offers {
			c.Offer(o)
		}
	})
}

// messageBound is the paper's Lemma 4 bound on expected messages summed over
// the initial shards, each a protocol instance over the distinct keys routed
// to it. It is the infinite-window bound, so on a sliding window the ratio
// reads above 1 by design.
func messageBound(w workload, keys []string, router *cluster.ShardRouter) float64 {
	perShard := make([]map[string]struct{}, router.Shards())
	for i := range perShard {
		perShard[i] = map[string]struct{}{}
	}
	for _, k := range keys {
		perShard[router.Shard(k)][k] = struct{}{}
	}
	total := 0.0
	for _, d := range perShard {
		total += stats.ExpectedMessagesUpperBound(w.sites, w.sampleSize, len(d))
	}
	return total
}
