package main

import (
	"strconv"
	"time"
)

// A layerDef is one per-layer metric of a traced run. Most are the
// median self time of the spans with one name (optionally only those
// whose "outcome" attr matches), or the median of a numeric attr of
// those spans; the rest (span == "") are derived by the workload.
// Every traced run reports every one; a layer the workload does not
// cross reads 0.
type layerDef struct {
	name, unit string
	span       string
	outcome    string
	attr       string
}

var perLayer = []layerDef{
	{name: "cdag.new_s", unit: "s", span: "cdag.new"},
	{name: "cdag.index_s", unit: "s", span: "cdag.index"},
	{name: "routing.router_s", unit: "s", span: "routing.router"},
	{name: "routing.scan_s", unit: "s", span: "routing.scan"},
	{name: "routing.scan_paths_per_s", unit: "1/s"},
	{name: "routing.scan_allocs", unit: "count", span: "routing.scan", attr: "allocs"},
	{name: "routing.chain_usage_s", unit: "s", span: "routing.chain_usage"},
	{name: "routing.enumerate_s", unit: "s", span: "routing.enumerate"},
	{name: "routing.enumerate_paths", unit: "count", span: "routing.enumerate", attr: "paths"},
	{name: "routing.checkpoint_s", unit: "s"},
	{name: "routing.checkpoint_shards", unit: "count", span: "routing.checkpoint_load", attr: "shards"},
	{name: "routing.checkpoint_bytes", unit: "bytes", span: "routing.checkpoint_load", attr: "bytes_written"},
	{name: "routing.checkpoint_load_s", unit: "s", span: "routing.checkpoint_load"},
	{name: "serve.recover_s", unit: "s", span: "serve.recover"},
	{name: "serve.submit_hit_s", unit: "s", span: "serve.submit", outcome: "hit"},
	{name: "serve.submit_miss_s", unit: "s", span: "serve.submit", outcome: "miss"},
	{name: "serve.post_hit_s", unit: "s", span: "serve.post", outcome: "hit"},
	{name: "serve.queue_wait_s", unit: "s", span: "serve.events", outcome: "miss", attr: "queue_wait_sec"},
	{name: "serve.run_s", unit: "s", span: "serve.events", outcome: "miss", attr: "run_sec"},
	{name: "serve.cpu_s", unit: "s", span: "serve.events", outcome: "miss", attr: "cpu_sec"},
	{name: "serve.final_lag_s", unit: "s", span: "serve.events", outcome: "miss", attr: "final_lag_sec"},
	{name: "serve.hits", unit: "count"},
	{name: "serve.misses", unit: "count"},
	{name: "serve.coalesced", unit: "count"},
	{name: "serve.hit_ratio", unit: "ratio"},
	{name: "schedule.dfs_s", unit: "s", span: "schedule.dfs"},
	{name: "schedule.random_s", unit: "s", span: "schedule.random"},
	{name: "pebble.run_min_s", unit: "s", span: "pebble.run_min"},
	{name: "pebble.run_lru_s", unit: "s", span: "pebble.run_lru"},
	{name: "pebble.run_fifo_s", unit: "s", span: "pebble.run_fifo"},
	{name: "pebble.run_random_min_s", unit: "s", span: "pebble.run_random_min"},
	{name: "pebble.run_random_lru_s", unit: "s", span: "pebble.run_random_lru"},
	{name: "pebble.run_allocs", unit: "count"},
	{name: "pebble.stackdist_s", unit: "s", span: "pebble.stackdist"},
	{name: "core.certify_s", unit: "s", span: "core.certify"},
	{name: "paperrepro.e1_s", unit: "s", span: "paperrepro.E1"},
	{name: "paperrepro.e3_s", unit: "s", span: "paperrepro.E3"},
	{name: "paperrepro.e7_s", unit: "s", span: "paperrepro.E7"},
	{name: "paperrepro.e11_s", unit: "s", span: "paperrepro.E11"},
	{name: "paperrepro.e13_s", unit: "s", span: "paperrepro.E13"},
	{name: "paperrepro.e14_s", unit: "s", span: "paperrepro.E14"},
	{name: "trace.overhead", unit: "ratio"},
	{name: "trace.coverage", unit: "ratio"},
}

// spanValues collects, over the spans d selects, each one's self time
// (seconds) or its d.attr value.
func spanValues(spans []*span, self map[int]time.Duration, d layerDef) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.name != d.span || d.outcome != "" && s.attrs["outcome"] != d.outcome {
			continue
		}
		if d.attr == "" {
			xs = append(xs, self[s.id].Seconds())
			continue
		}
		if v, err := strconv.ParseFloat(s.attrs[d.attr], 64); err == nil {
			xs = append(xs, v)
		}
	}
	return xs
}

func (r *run) layerMetrics() map[string]metric {
	spans, self := r.tr.finished()
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		v, ok := r.derived[d.name]
		if !ok && d.span != "" {
			v = median(spanValues(spans, self, d))
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

// reps returns the durations of the root's children named name and,
// for each, the summed durations of its own children: the traced
// replicas of one untraced operation and the layer time they cover.
func (r *run) reps(name string) (durs, covered []float64) {
	spans, _ := r.tr.finished()
	idx := make(map[int]int)
	for _, s := range spans {
		if s.parent == r.root.id && s.name == name {
			idx[s.id] = len(durs)
			durs = append(durs, s.dur().Seconds())
			covered = append(covered, 0)
		}
	}
	for _, s := range spans {
		if i, ok := idx[s.parent]; ok {
			covered[i] += s.dur().Seconds()
		}
	}
	return durs, covered
}

// traceRatios derives trace.overhead — the traced replica's median
// wall time over the untraced operation's, minus 1 — and
// trace.coverage — the layer spans' summed time over the untraced
// operation's wall time, which drops when the replica drifts from what
// the untraced path runs. rep names the replica spans; base holds the
// untraced operation times.
func (r *run) traceRatios(rep string, base []float64) {
	durs, covered := r.reps(rep)
	b := median(base)
	if b <= 0 || len(durs) == 0 {
		return
	}
	r.derived["trace.overhead"] = median(durs)/b - 1
	r.derived["trace.coverage"] = median(covered) / b
}
