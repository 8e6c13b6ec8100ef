// Command routed is the verification-as-a-service daemon: clients
// POST (algorithm, k, kernel, adjstride, orbits) jobs to /jobs, get a
// job ID, poll GET /jobs/{id} or stream GET /jobs/{id}/events (SSE)
// for live progress, and fetch the final Stats certificate. One
// listener serves the job API next to the observability surface
// (/metrics, /healthz, /debug/pprof).
//
// Usage:
//
//	routed [-addr :7607] [-datadir routed-data] [-queue 64]
//	       [-jobs 1] [-jobworkers 0] [-maxk 6]
//	       [-journal routed.jsonl] [-heartbeat 30s] [-sample 10s]
//	       [-capturedir DIR] [-captures 8] [-heapgrowth N] [-gcpause 500ms]
//	       [-draintimeout 30s] [-crashaftershards 0]
//
// The service core (internal/serve) gives repeated traffic three
// layers of reuse: a content-addressed result cache (identical
// specs — by algorithm content, not name — return the cached
// certificate without enumerating), single-flight coalescing
// (identical in-flight submissions join one run), and per-job
// checkpoints under -datadir (a killed daemon restarted over the same
// directory re-enqueues incomplete jobs and resumes them mid-run,
// with certificates bit-identical to uninterrupted runs).
//
// Every job carries an end-to-end trace ID — minted at submission, or
// accepted from the client's X-Trace-Id header — stamped onto every
// journal record and span the run emits, so `routelog -journal
// routed.jsonl` reconstructs per-job waterfalls after the fact. The
// journal (with -journal) records each job's run_start, shard
// completions, heartbeats (with -heartbeat), engine spans, and final
// stats under that trace.
//
// The daemon watches itself: a runtime sampler publishes the proc_*
// metric families (heap, GC pauses, goroutines, CPU) every -sample
// and stamps a resource snapshot onto heartbeat journal records; an
// anomaly profiler captures pprof heap+CPU profiles into a bounded
// ring under -capturedir (default <datadir>/captures) when the heap
// grows faster than -heapgrowth bytes/sec, GC pause p99 exceeds
// -gcpause, or the job queue fills — browsable at /debug/captures.
// Every job's doc carries a resources block (wall, queue-wait, CPU,
// allocated bytes, paths/s) accumulated across crash/resume legs;
// `routelog -resources` rebuilds the same table from the journal.
//
// SIGINT/SIGTERM drains gracefully: the service stops claiming shards
// and closes SSE streams (/healthz reports "draining"), in-flight
// HTTP requests finish, running jobs stop at the next shard boundary
// with their checkpoints persisted, and the process exits within
// -draintimeout.
//
// -crashaftershards N is a failpoint: the process exits hard (no
// drain, no final flush) after N shard completions — the seam
// `make routed-smoke` uses to simulate a kill mid-job.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"pathrouting/internal/obs"
	"pathrouting/internal/routing"
	"pathrouting/internal/runlog"
	"pathrouting/internal/serve"
)

var (
	addr         = flag.String("addr", ":7607", "HTTP listen address (job API, /metrics, /healthz, /debug/pprof)")
	dataDir      = flag.String("datadir", "routed-data", "state root: per-job checkpoints and the result-cache spill")
	queueDepth   = flag.Int("queue", 64, "bounded FIFO job queue depth (full queue = HTTP 503)")
	jobs         = flag.Int("jobs", 1, "jobs enumerated concurrently")
	jobWorkers   = flag.Int("jobworkers", 0, "verifier goroutines per running job (0 = GOMAXPROCS/jobs)")
	maxK         = flag.Int("maxk", 6, "largest accepted recursion depth k")
	journalPath  = flag.String("journal", "", "append JSONL run records to this file")
	heartbeat    = flag.Duration("heartbeat", 30*time.Second, "per-job heartbeat cadence, journal records and SSE events (0 = off)")
	drainTimeout = flag.Duration("draintimeout", 30*time.Second, "graceful-shutdown deadline on SIGINT/SIGTERM")
	crashAfter   = flag.Int64("crashaftershards", 0, "failpoint: exit hard after N shard completions (0 = off)")
	sample       = flag.Duration("sample", 10*time.Second, "runtime self-telemetry sampling cadence, proc_* metrics (0 = off)")
	captureDir   = flag.String("capturedir", "", "anomaly pprof capture ring directory (default <datadir>/captures)")
	captures     = flag.Int("captures", 8, "anomaly pprof capture ring size")
	heapGrowth   = flag.Int64("heapgrowth", 1<<30, "capture trigger: heap growth rate in bytes/sec (0 = off)")
	gcPause      = flag.Duration("gcpause", 500*time.Millisecond, "capture trigger: sampled GC pause p99 (0 = off)")
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "routed:", err)
	os.Exit(1)
}

func main() {
	flag.Parse()
	reg := obs.NewRegistry()

	var jw *runlog.Writer
	if *journalPath != "" {
		w, err := runlog.Open(*journalPath)
		if err != nil {
			fail(err)
		}
		defer w.Close()
		jw = w
	}

	// The failpoint counts real (non-restored) shard completions across
	// all jobs. OnShard fires after the shard is merged but before its
	// checkpoint flush, so dying on the Nth callback leaves N-1 shards
	// durable — a genuine mid-job kill, not a tidy pause. All journaling
	// (per-job shard/heartbeat/final records, trace-stamped) lives in
	// internal/serve now; the daemon only owns the failpoint.
	var shardCount atomic.Int64
	opts := serve.Options{
		DataDir:     *dataDir,
		QueueDepth:  *queueDepth,
		Concurrency: *jobs,
		JobWorkers:  *jobWorkers,
		MaxK:        *maxK,
		Registry:    reg,
		Journal:     jw,
		Heartbeat:   *heartbeat,
		OnShard: func(_ *serve.Job, d routing.ShardDone) {
			if *crashAfter > 0 && !d.Restored && shardCount.Add(1) >= *crashAfter {
				fmt.Fprintf(os.Stderr, "routed: failpoint: exiting after %d shard completions\n", *crashAfter)
				os.Exit(2)
			}
		},
	}

	s, err := serve.New(opts)
	if err != nil {
		fail(err)
	}

	// Anomaly-triggered profiling: the runtime sampler feeds every
	// snapshot through the profiler's thresholds (plus the serving
	// layer's queue depth, which the runtime cannot see); trips land
	// pprof captures in a bounded on-disk ring under /debug/captures.
	capDir := *captureDir
	if capDir == "" {
		capDir = filepath.Join(*dataDir, "captures")
	}
	prof, err := obs.NewProfiler(obs.ProfilerConfig{
		Dir:                   capDir,
		MaxCaptures:           *captures,
		HeapGrowthBytesPerSec: float64(*heapGrowth),
		GCPauseP99Seconds:     gcPause.Seconds(),
		QueueDepth:            s.QueueLen,
		QueueLimit:            *queueDepth,
		Registry:              reg,
	})
	if err != nil {
		fail(err)
	}
	sampler := obs.StartRuntimeSampler(reg, *sample, prof.Consider)

	srv, err := obs.StartServerMux(*addr, reg, s.Health, func(mux *http.ServeMux) {
		s.Mount(mux)
		prof.Mount(mux)
	})
	if err != nil {
		fail(err)
	}
	// Daemon-lifecycle record: process start, no trace (per-job
	// run_start records carry the traces).
	_ = jw.Emit(runlog.Record{Event: runlog.EventRunStart, Tool: "routed"})
	// Install the handler before announcing readiness: a supervisor may
	// send SIGTERM the moment it sees the listening line, and the
	// default action would skip the drain and the final checkpoint flush.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s.Start()
	fmt.Fprintf(os.Stderr, "routed listening on %s\n", srv.URL())

	got := <-sig
	fmt.Fprintf(os.Stderr, "routed: %s: draining (deadline %s)\n", got, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain order matters: BeginDrain first, so open SSE streams end
	// (they watch the serve stop channel) and /healthz flips to
	// "draining" — otherwise srv.Shutdown would hang on live streams
	// until the deadline. Then the HTTP listener, so in-flight requests
	// finish with complete bodies and new submissions stop at the
	// socket. Then the job drain, so running enumerations checkpoint
	// their last shard before the process exits.
	s.BeginDrain()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "routed:", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		fail(err)
	}
	sampler.Stop()
	prof.Close()
}
