package routing

// Observability wiring for the verification engine. Instruments is the
// bundle of metrics and the span tracer the verifiers update; a nil
// *Instruments (the default) keeps the hot enumeration path at a single
// pointer test, and the metric updates themselves are batched at
// progress-snapshot granularity — never per path — so an instrumented
// run stays within noise of an uninstrumented one (the acceptance bar
// is ≤ 2% on BenchmarkA7ParallelVerification).

import (
	"sync/atomic"
	"time"

	"pathrouting/internal/obs"
)

// Instruments holds the verification engine's metrics and tracer.
// Obtain one with NewInstruments and attach it to Router.Obs; all
// fields are individually nil-safe, so partially populated bundles
// work too.
type Instruments struct {
	// Paths counts pair paths fully verified across all workers.
	Paths *obs.Counter
	// AdjChecks counts paths verified edge-by-edge against adjacency.
	AdjChecks *obs.Counter
	// PathsPerSec is the run-global verification throughput.
	PathsPerSec *obs.Gauge
	// PeakVertexHits is the high-water mark of per-worker local hit
	// accumulators (the global maximum appears in final Stats after
	// the merge; this gauge tracks the live lower bound on it).
	PeakVertexHits *obs.Gauge
	// ShardEnumerate is the latency of one shard (or, in plain
	// parallel runs, one worker row-range) enumeration pass.
	ShardEnumerate *obs.Histogram
	// ShardsDone counts completed shards; ShardsSkipped counts shards
	// a resumed run restored from the checkpoint instead of re-running.
	ShardsDone    *obs.Counter
	ShardsSkipped *obs.Counter
	// OrbitGroups counts pair-path orbits collapsed by the orbit-reduced
	// scan (zero for full enumeration). A complete orbit-reduced run over
	// G_k collapses 2aᵏn₀ᵏ orbits of n₀ᵏ paths each.
	OrbitGroups *obs.Counter
	// CheckpointFsync is the latency of a checkpoint save's encode,
	// write and fsync (the rename and directory sync that follow are
	// not timed).
	CheckpointFsync *obs.Histogram
	// Tracer, when non-nil, emits spans around shard enumerate, merge,
	// and checkpoint persist into the run journal.
	Tracer *obs.Tracer

	// startNanos is the engine start time (set by the verifiers) the
	// throughput gauge is computed against.
	startNanos atomic.Int64
	// restoredPaths counts paths credited from a resumed checkpoint
	// rather than verified this run; the throughput gauge subtracts it
	// so paths/s reflects work actually performed.
	restoredPaths atomic.Int64
}

// NewInstruments registers the engine's metric families on reg and
// returns the bundle. Calling it twice with the same registry returns
// instruments sharing the same underlying metrics.
func NewInstruments(reg *obs.Registry) *Instruments {
	return &Instruments{
		Paths: reg.Counter("routing_paths_verified_total",
			"pair paths fully verified (length, endpoints, hit accumulation)"),
		AdjChecks: reg.Counter("routing_adjacency_checked_total",
			"pair paths verified edge-by-edge against the graph adjacency"),
		PathsPerSec: reg.Gauge("routing_paths_per_second",
			"run-global verification throughput"),
		PeakVertexHits: reg.Gauge("routing_peak_vertex_hits",
			"largest per-worker local vertex hit count observed so far"),
		ShardEnumerate: reg.Histogram("routing_shard_enumerate_seconds",
			"latency of one shard (or worker row-range) enumeration pass", obs.LatencyBuckets),
		ShardsDone: reg.Counter("routing_shards_done_total",
			"checkpoint shards completed this run"),
		ShardsSkipped: reg.Counter("routing_shards_resume_skipped_total",
			"checkpoint shards restored from a resumed checkpoint instead of re-run"),
		OrbitGroups: reg.Counter("routing_orbit_groups_total",
			"pair-path orbits collapsed by the orbit-reduced scan"),
		CheckpointFsync: reg.Histogram("routing_checkpoint_fsync_seconds",
			"checkpoint encode+write+fsync latency", obs.LatencyBuckets),
	}
}

// WithJob returns a derived bundle sharing this one's metrics (the
// counters and histograms are the same registered instruments) but
// whose tracer stamps the job's trace identity onto every span, and
// whose run-local state (start time, restored-path credit) is fresh.
// The struct is rebuilt field by field — Instruments embeds atomics
// and must never be copied wholesale. Nil-safe.
func (in *Instruments) WithJob(tc obs.TraceContext) *Instruments {
	if in == nil {
		return nil
	}
	return &Instruments{
		Paths:           in.Paths,
		AdjChecks:       in.AdjChecks,
		PathsPerSec:     in.PathsPerSec,
		PeakVertexHits:  in.PeakVertexHits,
		ShardEnumerate:  in.ShardEnumerate,
		ShardsDone:      in.ShardsDone,
		ShardsSkipped:   in.ShardsSkipped,
		OrbitGroups:     in.OrbitGroups,
		CheckpointFsync: in.CheckpointFsync,
		Tracer:          in.Tracer.WithJob(tc),
	}
}

// noteStart records the engine start the throughput gauge divides by.
// Keeps the earliest start across E3-style back-to-back runs sharing
// one bundle simple: each verification resets it.
func (in *Instruments) noteStart(t time.Time) {
	if in == nil {
		return
	}
	in.startNanos.Store(t.UnixNano())
	in.restoredPaths.Store(0)
}

// noteRestored credits the work a resumed run restored from its
// checkpoint instead of re-verifying, so the Paths/AdjChecks counters
// reach their run totals (and /healthz coverage reaches 100%) on
// resumed and fully-restored runs. The restored paths are remembered
// separately so the throughput gauge excludes them.
func (in *Instruments) noteRestored(paths, adjChecked, shards int64) {
	if in == nil {
		return
	}
	in.Paths.Add(paths)
	in.AdjChecks.Add(adjChecked)
	in.ShardsSkipped.Add(shards)
	in.restoredPaths.Add(paths)
}

// flushScan folds a worker's since-last-flush deltas into the metrics.
// Called at progress-snapshot cadence, so its atomics are off the
// per-path fast path.
func (in *Instruments) flushScan(pathsDelta, adjDelta, peak int64) {
	if in == nil {
		return
	}
	in.Paths.Add(pathsDelta)
	in.AdjChecks.Add(adjDelta)
	in.PeakVertexHits.Max(float64(peak))
	if start := in.startNanos.Load(); start > 0 {
		if el := time.Since(time.Unix(0, start)).Seconds(); el > 0 {
			in.PathsPerSec.Set(float64(in.Paths.Value()-in.restoredPaths.Load()) / el)
		}
	}
}

// flushOrbit folds a worker's since-last-flush orbit-group delta into
// the metrics; called at the same snapshot cadence as flushScan.
func (in *Instruments) flushOrbit(groupsDelta int64) {
	if in == nil {
		return
	}
	in.OrbitGroups.Add(groupsDelta)
}

// startSpan opens a span on the bundle's tracer (nil-safe all the way
// down).
func (in *Instruments) startSpan(name string) *obs.Span {
	if in == nil {
		return nil
	}
	return in.Tracer.StartSpan(name)
}
