// Package serve is the verification-as-a-service core behind cmd/routed:
// clients submit (algorithm, k, adjstride, orbits) jobs, get a
// job ID, poll progress, and fetch the final Stats certificate.
//
// The paper's product is a certificate — "this routing of G_k satisfies
// the 6aᵏ congestion bound" — and under repeated traffic the common
// case is a certificate someone already computed. The service is built
// around that: a content-addressed result cache (routing.CacheKey; in
// memory plus JSON spill to disk, so restarts keep warm results),
// single-flight coalescing so identical in-flight requests join one
// enumeration run, and a bounded FIFO queue with a per-job worker
// budget so concurrent tenants share the machine instead of
// oversubscribing it. Jobs run through the checkpointed verifier with
// a per-job checkpoint directory, so a killed daemon resumes every
// incomplete job on restart and an interrupted certificate still comes
// out bit-identical to an uninterrupted one.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/obs"
	"pathrouting/internal/routing"
	"pathrouting/internal/runlog"
)

// toolName stamps the service's journal records.
const toolName = "routed"

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submission when the bounded FIFO queue is
	// at capacity (HTTP 503: retry later).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects submissions during shutdown (HTTP 503).
	ErrDraining = errors.New("serve: server is draining")
)

// JobSpec is what a client submits: the certificate-determining
// parameters (algorithm, k, adjstride, orbits — exactly the
// routing.CacheKey inputs), kernel, accepted only as "scratch" (or
// empty), and shardrows, a checkpoint-granularity knob that cannot
// change the certificate and is excluded from the key.
type JobSpec struct {
	Alg       string `json:"alg"`
	K         int    `json:"k"`
	Kernel    string `json:"kernel,omitempty"`
	AdjStride int64  `json:"adjstride,omitempty"`
	Orbits    bool   `json:"orbits,omitempty"`
	ShardRows int64  `json:"shardrows,omitempty"`
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// A Job is one submitted verification request and its lifecycle state.
// All mutable state is behind the mutex; readers use Snapshot.
type Job struct {
	id    string
	spec  JobSpec
	key   string
	alg   *bilinear.Algorithm
	dir   string
	trace string // end-to-end trace ID, immutable after creation

	events broadcaster // live SSE fan-out (see stream.go)

	mu        sync.Mutex
	state     string
	cached    bool  // result served from the cache, nothing enumerated
	resumed   bool  // recovered from a previous daemon's job directory
	coalesced int64 // submissions that joined this in-flight job
	workers   map[int]routing.Progress
	shards    *routing.ShardDone
	stats     *statsDoc
	cert      string
	errMsg    string

	// Cost accounting. acc is the job's accumulated Resources block —
	// across every crash/resume leg, not just the current process.
	// queuedAt anchors the next leg's queue wait (set at submission,
	// reset at requeue); the leg* fields are the current leg's
	// baselines, captured at leg start so shard-time and terminal
	// accounting can fold the leg's deltas onto legBase.
	acc       ResourcesDoc
	queuedAt  time.Time
	legBase   ResourcesDoc
	legStart  time.Time
	legCPU0   float64
	legAlloc0 int64
}

// ResourcesDoc is the per-job cost block clients see in the JobDoc:
// what this job actually consumed, accumulated across every
// crash/resume leg (a resumed job's totals grow, never reset). CPU
// and allocation are process-wide deltas over the job's running legs,
// so they include whatever else the process did meanwhile: the HTTP
// handlers, the resource sampler, and other jobs when Concurrency > 1.
// They bound the job's own cost from above.
type ResourcesDoc struct {
	QueuedAt   string `json:"queued_at,omitempty"`   // RFC 3339, UTC
	StartedAt  string `json:"started_at,omitempty"`  // first leg start
	FinishedAt string `json:"finished_at,omitempty"` // terminal state

	WallSeconds      float64 `json:"wall_sec"`       // sum of running-leg wall time
	QueueWaitSeconds float64 `json:"queue_wait_sec"` // sum of queued-state waits
	CPUSeconds       float64 `json:"cpu_sec"`
	AllocBytes       int64   `json:"alloc_bytes"`
	PathsPerSec      float64 `json:"paths_per_sec,omitempty"` // total paths / total wall
	Legs             int     `json:"legs"`                    // daemon generations that ran the job
}

// runlog renders the block as the schema-4 journal Resources record.
func (r ResourcesDoc) runlog() *runlog.Resources {
	return &runlog.Resources{
		WallSeconds:      r.WallSeconds,
		QueueWaitSeconds: r.QueueWaitSeconds,
		CPUSeconds:       r.CPUSeconds,
		AllocBytes:       r.AllocBytes,
		PathsPerSec:      r.PathsPerSec,
		Legs:             r.Legs,
	}
}

// beginLeg opens a running leg: it charges the wait since queuedAt to
// the queue-wait total, counts the leg, and captures the leg's wall /
// CPU / allocation baselines.
func (j *Job) beginLeg(snap obs.ResourceSnapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.queuedAt.IsZero() {
		j.acc.QueueWaitSeconds += snap.Time.Sub(j.queuedAt).Seconds()
		j.queuedAt = time.Time{}
	}
	j.acc.Legs++
	if j.acc.StartedAt == "" {
		j.acc.StartedAt = snap.Time.UTC().Format(time.RFC3339Nano)
	}
	j.legBase = j.acc
	j.legStart = snap.Time
	j.legCPU0 = snap.CPUSeconds
	j.legAlloc0 = snap.AllocBytes
}

// legSnapshot reads the resources a leg is charged for. Allocation
// comes from runtime.ReadMemStats, which flushes the per-P allocation
// caches before it totals them. The runtime/metrics counter behind
// obs.ReadResources moves only when such a cache hands back a span, so
// a job of a millisecond or two often read as allocating nothing.
func legSnapshot() obs.ResourceSnapshot {
	snap := obs.ReadResources()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.AllocBytes = int64(ms.TotalAlloc)
	return snap
}

// accountLeg folds the current leg's cost so far onto the leg-start
// base and returns the updated totals. Called on every shard boundary
// (so a crash loses at most one shard of accounting) and at leg end.
func (j *Job) accountLeg(snap obs.ResourceSnapshot) ResourcesDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	cur := j.legBase
	cur.WallSeconds += snap.Time.Sub(j.legStart).Seconds()
	cur.CPUSeconds += snap.CPUSeconds - j.legCPU0
	cur.AllocBytes += snap.AllocBytes - j.legAlloc0
	j.acc = cur
	return cur
}

// finishAccounting stamps the terminal fields (finish time, overall
// paths/s across every leg's wall time) onto the accumulated block
// and returns it.
func (j *Job) finishAccounting(paths int64) ResourcesDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.acc.FinishedAt = time.Now().UTC().Format(time.RFC3339Nano)
	if paths > 0 && j.acc.WallSeconds > 0 {
		j.acc.PathsPerSec = float64(paths) / j.acc.WallSeconds
	}
	return j.acc
}

// Resources returns the job's accumulated cost block, or nil if no
// leg has run (cache hits enumerate nothing and cost nothing).
func (j *Job) Resources() *ResourcesDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.acc.Legs == 0 {
		return nil
	}
	r := j.acc
	return &r
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's (normalized) submitted spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Key returns the job's content-addressed cache key.
func (j *Job) Key() string { return j.key }

// Trace returns the job's end-to-end trace ID (minted at submission,
// or the one the client supplied).
func (j *Job) Trace() string { return j.trace }

// JobDoc is a job rendered for clients (HTTP responses, result.json).
type JobDoc struct {
	ID          string        `json:"id"`
	State       string        `json:"state"`
	Spec        JobSpec       `json:"spec"`
	Key         string        `json:"key"`
	Trace       string        `json:"trace,omitempty"`
	Cached      bool          `json:"cached"`
	Resumed     bool          `json:"resumed,omitempty"`
	Coalesced   int64         `json:"coalesced,omitempty"`
	Progress    *ProgressDoc  `json:"progress,omitempty"`
	Resources   *ResourcesDoc `json:"resources,omitempty"`
	Stats       *statsDoc     `json:"stats,omitempty"`
	Certificate string        `json:"certificate,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// ProgressDoc is the live progress block of a running job.
type ProgressDoc struct {
	PathsDone   int64 `json:"paths_done"`
	PathsTotal  int64 `json:"paths_total"`
	ShardsDone  int64 `json:"shards_done"`
	ShardsTotal int64 `json:"shards_total"`
}

// Snapshot renders the job's current state.
func (j *Job) Snapshot() JobDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := JobDoc{
		ID: j.id, State: j.state, Spec: j.spec, Key: j.key, Trace: j.trace,
		Cached: j.cached, Resumed: j.resumed, Coalesced: j.coalesced,
		Stats: j.stats, Certificate: j.cert, Error: j.errMsg,
	}
	if j.acc.Legs > 0 {
		res := j.acc
		doc.Resources = &res
	}
	if j.state == StateRunning && (len(j.workers) > 0 || j.shards != nil) {
		p := &ProgressDoc{}
		for _, w := range j.workers {
			p.PathsDone += w.Done
			p.PathsTotal += w.Total
		}
		if j.shards != nil {
			p.ShardsDone, p.ShardsTotal = j.shards.Done, j.shards.Total
		}
		doc.Progress = p
	}
	return doc
}

func (j *Job) onProgress(p routing.Progress) {
	j.mu.Lock()
	j.workers[p.Worker] = p
	j.mu.Unlock()
}

func (j *Job) onShard(d routing.ShardDone) {
	j.mu.Lock()
	j.shards = &d
	j.mu.Unlock()
}

// Options configures a Server.
type Options struct {
	// DataDir is the service's state root (required): job directories
	// (spec + checkpoint + result) under jobs/, the result-cache spill
	// under cache/.
	DataDir string
	// QueueDepth bounds the FIFO job queue (default 64). Submissions
	// beyond it fail with ErrQueueFull rather than queueing unboundedly.
	QueueDepth int
	// Concurrency is the number of jobs running at once (default 1).
	Concurrency int
	// JobWorkers is the verifier goroutine budget per running job
	// (default: GOMAXPROCS / Concurrency, at least 1), so Concurrency
	// tenants share the machine instead of each grabbing every core.
	JobWorkers int
	// MaxK rejects submissions beyond this recursion depth (default 6).
	// One box verifies k=7: a checkpointed Strassen k=7 job takes
	// seconds on 2 cores, but holds about 0.6 GB, three vertex-length
	// int64 vectors per worker plus the checkpoint's two, against about
	// 90 MB at k=6. The default stays at 6 until it is derived from a
	// memory budget.
	MaxK int
	// Registry receives the service and engine metrics (one is created
	// if nil; reuse the daemon's so /metrics shows everything).
	Registry *obs.Registry
	// OnShard, when non-nil, observes every shard completion of every
	// job (tests use it as a failpoint for crash/resume drills).
	OnShard func(job *Job, d routing.ShardDone)
	// OnJobDone, when non-nil, observes every job reaching a terminal
	// state (done or failed).
	OnJobDone func(job *Job)
	// Journal, when non-nil, receives the service's runlog records:
	// per-job run_start, shard_done, heartbeat, and final events, plus
	// the engine's spans, every one stamped with the job's trace and ID
	// (schema 3) so cmd/routelog reconstructs per-job waterfalls.
	Journal *runlog.Writer
	// Heartbeat is the per-job heartbeat cadence — a journal record and
	// an SSE event carrying the live metric snapshot — while the job
	// runs (0 disables heartbeats).
	Heartbeat time.Duration
}

// A Server owns the job queue, the runners, and the result cache.
type Server struct {
	opts  Options
	reg   *obs.Registry
	ins   *routing.Instruments
	cache *resultCache
	met   metrics

	queue   chan *Job
	stop    chan struct{}
	wg      sync.WaitGroup
	running atomic.Int64 // live enumeration count behind the gauge

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job
	inflight map[string]*Job // cache key -> queued/running job
	seq      int
	draining bool
	started  bool
}

type metrics struct {
	submitted, completed, failed *obs.Counter
	cacheHits, cacheMisses       *obs.Counter
	coalesced                    *obs.Counter
	queueDepth, running          *obs.Gauge
	jobSeconds                   *obs.Histogram
	// Labeled families: the same service events, split by outcome so
	// one dashboard query distinguishes hit/miss/coalesced submissions
	// and done/resumed/failed/paused runs. The unlabeled counters above
	// remain the stable scripting surface.
	submissions *obs.CounterVec   // outcome: hit | miss | coalesced
	finished    *obs.CounterVec   // outcome: done | resumed | failed | paused
	jobDuration *obs.HistogramVec // outcome: done | resumed | failed
	// Cost attribution (observed once per job at its terminal state,
	// with the totals accumulated across every crash/resume leg).
	queueWait  *obs.HistogramVec // outcome: done | resumed | failed
	cpuSeconds *obs.HistogramVec // outcome: done | resumed | failed
}

// New builds a Server over opts.DataDir and recovers every incomplete
// job it finds there into the queue (they resume from their
// checkpoints once Start runs). Completed jobs are reloaded too, so
// GET /jobs/{id} keeps answering across restarts.
func New(opts Options) (*Server, error) {
	if opts.DataDir == "" {
		return nil, errors.New("serve: Options.DataDir is required")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = max(1, runtime.GOMAXPROCS(0)/opts.Concurrency)
	}
	if opts.MaxK <= 0 {
		opts.MaxK = 6
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	for _, sub := range []string{"jobs", "cache"} {
		if err := os.MkdirAll(filepath.Join(opts.DataDir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	reg := opts.Registry
	s := &Server{
		opts:     opts,
		reg:      reg,
		ins:      routing.NewInstruments(reg),
		cache:    newResultCache(filepath.Join(opts.DataDir, "cache")),
		queue:    make(chan *Job, opts.QueueDepth),
		stop:     make(chan struct{}),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		met: metrics{
			submitted: reg.Counter("serve_jobs_submitted_total",
				"verification jobs submitted (including cache hits and coalesced submissions)"),
			completed: reg.Counter("serve_jobs_completed_total",
				"verification jobs completed with a certificate"),
			failed: reg.Counter("serve_jobs_failed_total",
				"verification jobs that ended in an error"),
			cacheHits: reg.Counter("serve_result_cache_hits_total",
				"submissions served from the content-addressed result cache"),
			cacheMisses: reg.Counter("serve_result_cache_misses_total",
				"submissions that required an enumeration run"),
			coalesced: reg.Counter("serve_jobs_coalesced_total",
				"submissions coalesced onto an identical in-flight job"),
			queueDepth: reg.Gauge("serve_queue_depth",
				"jobs waiting in the FIFO queue"),
			running: reg.Gauge("serve_jobs_running",
				"jobs currently enumerating"),
			jobSeconds: reg.Histogram("serve_job_seconds",
				"wall time of one enumeration run (cache hits excluded)", obs.LatencyBuckets),
			submissions: reg.CounterVec("serve_submissions_total",
				"job submissions by outcome (hit = result cache, miss = enumeration run, coalesced = joined an in-flight run)",
				"outcome"),
			finished: reg.CounterVec("serve_jobs_finished_total",
				"enumeration runs reaching a terminal or drained state, by outcome",
				"outcome"),
			jobDuration: reg.HistogramVec("serve_job_duration_seconds",
				"wall time of one enumeration run, by outcome", obs.LatencyBuckets,
				"outcome"),
			queueWait: reg.HistogramVec("serve_job_queue_wait_seconds",
				"total time a job spent queued before its legs ran, by outcome",
				obs.LatencyBuckets, "outcome"),
			cpuSeconds: reg.HistogramVec("serve_job_cpu_seconds",
				"process CPU seconds attributed to a job across its legs, by outcome",
				obs.LatencyBuckets, "outcome"),
		},
	}
	if opts.Journal != nil {
		s.ins.Tracer = obs.NewTracer(opts.Journal, runlog.Record{Tool: toolName})
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Start launches the runner pool. Idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.opts.Concurrency; i++ {
		s.wg.Add(1)
		go s.runner()
	}
}

// BeginDrain flips the service into its draining state: submissions
// start failing with ErrDraining, running jobs stop claiming shards,
// open SSE streams end, and /healthz reports "draining". Idempotent.
// Daemons call it before shutting their HTTP listener down, so
// in-flight streams release the listener instead of pinning it until
// the drain deadline.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		close(s.stop)
	}
}

// Shutdown drains the service: BeginDrain, then wait for the running
// jobs to park (their checkpoints persist, so a restart resumes them)
// until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// normalize validates and canonicalizes a submitted spec, resolving
// its algorithm from the catalog.
func (s *Server) normalize(spec JobSpec) (JobSpec, *bilinear.Algorithm, error) {
	spec.Alg = strings.TrimSpace(spec.Alg)
	var alg *bilinear.Algorithm
	for _, a := range bilinear.All() {
		if a.Name == spec.Alg {
			alg = a
			break
		}
	}
	if alg == nil {
		names := make([]string, 0, 8)
		for _, a := range bilinear.All() {
			names = append(names, a.Name)
		}
		return spec, nil, fmt.Errorf("unknown algorithm %q (catalog: %s)", spec.Alg, strings.Join(names, ", "))
	}
	if spec.K < 1 || spec.K > s.opts.MaxK {
		return spec, nil, fmt.Errorf("k = %d out of range [1, %d]", spec.K, s.opts.MaxK)
	}
	switch spec.Kernel {
	case "", routing.KernelScratch:
		spec.Kernel = routing.KernelScratch
	case "seed":
		return spec, nil, fmt.Errorf("kernel %q was removed: %q certifies the same Stats", spec.Kernel, routing.KernelScratch)
	default:
		return spec, nil, fmt.Errorf("unknown kernel %q (want %q)", spec.Kernel, routing.KernelScratch)
	}
	if spec.AdjStride < 0 || spec.ShardRows < 0 {
		return spec, nil, fmt.Errorf("adjstride and shardrows must be ≥ 0")
	}
	return spec, alg, nil
}

// Submit enqueues a job for spec with a freshly minted trace ID. See
// SubmitTrace.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitTrace(spec, "")
}

// SubmitTrace enqueues a job for spec, or returns the identical
// in-flight job (single-flight coalescing), or an immediately-done job
// served from the result cache. The returned Job may therefore be in
// any state; clients poll or stream it by ID either way.
//
// trace is the end-to-end trace ID the job's every journal record and
// response will carry: "" mints one, a client-supplied value is
// validated (obs.ValidTraceID) and adopted. A coalesced submission
// joins the in-flight job's existing trace — one enumeration, one
// trace.
func (s *Server) SubmitTrace(spec JobSpec, trace string) (*Job, error) {
	spec, alg, err := s.normalize(spec)
	if err != nil {
		return nil, err
	}
	switch {
	case trace == "":
		trace = obs.NewTraceID()
	case !obs.ValidTraceID(trace):
		return nil, fmt.Errorf("invalid trace ID %q (want 1-%d chars of [0-9A-Za-z_-])",
			trace, obs.MaxTraceIDLen)
	}
	key := routing.CacheKey(alg, spec.K, spec.AdjStride, spec.Orbits)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.met.submitted.Inc()

	// Single-flight: an identical queued or running job absorbs this
	// submission — one enumeration, many waiters.
	if j := s.inflight[key]; j != nil {
		j.mu.Lock()
		j.coalesced++
		j.mu.Unlock()
		s.met.coalesced.Inc()
		s.met.submissions.With("coalesced").Inc()
		return j, nil
	}
	// Content-addressed cache: certificates computed by any earlier
	// run (this process or a previous one — the spill survives
	// restarts) come back without enumerating anything.
	if e := s.cache.get(key); e != nil {
		s.met.cacheHits.Inc()
		s.met.submissions.With("hit").Inc()
		j := s.newJobLocked(spec, alg, key, trace)
		j.state, j.cached = StateDone, true
		stats := e.Stats
		j.stats, j.cert = &stats, e.Certificate
		if err := s.persistSpec(j); err != nil {
			fmt.Fprintf(os.Stderr, "serve: persist %s: %v\n", j.id, err)
		}
		s.persistJob(j)
		return j, nil
	}
	s.met.cacheMisses.Inc()
	s.met.submissions.With("miss").Inc()

	j := s.newJobLocked(spec, alg, key, trace)
	if err := s.persistSpec(j); err != nil {
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		return nil, err
	}
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		os.RemoveAll(j.dir)
		return nil, ErrQueueFull
	}
	s.inflight[key] = j
	s.met.queueDepth.SetInt(int64(len(s.queue)))
	j.events.publish(eventQueued, j.Snapshot())
	return j, nil
}

// newJobLocked allocates and registers a job; s.mu must be held.
func (s *Server) newJobLocked(spec JobSpec, alg *bilinear.Algorithm, key, trace string) *Job {
	s.seq++
	id := fmt.Sprintf("j%08d", s.seq)
	now := time.Now()
	j := &Job{
		id: id, spec: spec, key: key, alg: alg, trace: trace,
		dir:      filepath.Join(s.opts.DataDir, "jobs", id),
		state:    StateQueued,
		workers:  make(map[int]routing.Progress),
		queuedAt: now,
	}
	j.acc.QueuedAt = now.UTC().Format(time.RFC3339Nano)
	s.jobs[id] = j
	s.order = append(s.order, j)
	return j
}

// Get returns a job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// QueueLen returns the number of jobs waiting in the FIFO queue (the
// anomaly profiler's queue-depth trigger reads it).
func (s *Server) QueueLen() int { return len(s.queue) }

// Jobs returns every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// runner pulls jobs off the FIFO queue until Shutdown.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.met.queueDepth.SetInt(int64(len(s.queue)))
			select {
			case <-s.stop:
				// Drain won the race: leave the job queued on disk for
				// the next start.
				return
			default:
			}
			s.runJob(j)
		}
	}
}

// journalEmit appends a record to the service journal (nil-safe;
// journal failures are reported, never fatal — observability must not
// fail a verification).
func (s *Server) journalEmit(rec runlog.Record) {
	if err := s.opts.Journal.Emit(rec); err != nil {
		fmt.Fprintf(os.Stderr, "serve: journal: %v\n", err)
	}
}

// startJobHeartbeat launches the per-job heartbeat loop: every
// Options.Heartbeat it journals a heartbeat record (stamped with the
// job's trace identity, carrying the live metric snapshot) and
// publishes an SSE heartbeat event. The returned stop is idempotent
// and emits one final heartbeat, so the journal records the end state.
func (s *Server) startJobHeartbeat(j *Job, base runlog.Record) (stop func()) {
	if s.opts.Heartbeat <= 0 {
		return func() {}
	}
	emit := func() {
		rec := base
		rec.Event = runlog.EventHeartbeat
		rec.Metrics = s.reg.Snapshot()
		s.journalEmit(rec)
		j.events.publish(eventHeartbeat, j.Snapshot())
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(s.opts.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				emit()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			emit()
		})
	}
}

// runJob executes one job through the checkpointed verifier, with the
// job's trace identity threaded through the context so every span the
// engine emits — and every record runJob journals — carries it.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	j.state = StateRunning
	resumed := j.resumed
	j.mu.Unlock()
	s.met.running.SetInt(s.running.Add(1))

	ctx := obs.WithTraceContext(context.Background(),
		obs.TraceContext{TraceID: j.trace, JobID: j.id})
	base := runlog.Record{
		Tool: toolName, Alg: j.spec.Alg, K: j.spec.K,
		Workers: s.opts.JobWorkers, Trace: j.trace, Job: j.id,
	}
	startRec := base
	startRec.Event = runlog.EventRunStart
	startRec.Resumed = resumed
	s.journalEmit(startRec)
	j.events.publish(eventStarted, j.Snapshot())
	stopHeartbeat := s.startJobHeartbeat(j, base)

	j.beginLeg(legSnapshot())
	start := time.Now()
	ckpt := filepath.Join(j.dir, "run.ckpt")
	cfg := routing.JobConfig{
		Alg:            j.alg,
		K:              j.spec.K,
		Workers:        s.opts.JobWorkers,
		AdjStride:      j.spec.AdjStride,
		Orbits:         j.spec.Orbits,
		CheckpointPath: ckpt,
		ShardRows:      j.spec.ShardRows,
		Resume:         true, // missing checkpoint = fresh run
		Stop:           s.stop,
		OnShard: func(d routing.ShardDone) {
			j.onShard(d)
			// Fold the leg's cost so far into the accumulated block and
			// persist it before the external failpoint can fire: a crash
			// loses at most one shard of accounting. The checkpoint is
			// saved by time, not per shard (routing.CheckpointConfig), so
			// after a crash the spec may also count the cost of shards
			// the resumed leg redoes.
			j.accountLeg(legSnapshot())
			if err := s.persistSpec(j); err != nil {
				fmt.Fprintf(os.Stderr, "serve: persist %s: %v\n", j.id, err)
			}
			rec := base
			rec.Event = runlog.EventShardDone
			rec.Shard, rec.ShardsDone, rec.ShardsTotal, rec.ShardPaths = d.Shard, d.Done, d.Total, d.Paths
			s.journalEmit(rec)
			j.events.publish(eventShard, j.Snapshot())
			if s.opts.OnShard != nil {
				s.opts.OnShard(j, d)
			}
		},
		Progress: j.onProgress,
		Obs:      s.ins,
	}
	st, err := routing.RunJob(ctx, cfg)
	if errors.Is(err, routing.ErrCheckpointInvalid) {
		// A checkpoint that cannot be trusted never resumes, and the
		// job need not fail for it: set the file aside and run the job
		// once more from scratch.
		if rerr := os.Rename(ckpt, ckpt+".rejected"); rerr != nil {
			err = fmt.Errorf("%w (setting the checkpoint aside failed: %v)", err, rerr)
		} else {
			fmt.Fprintf(os.Stderr, "serve: job %s: checkpoint set aside as %s.rejected, rerunning from scratch: %v\n", j.id, ckpt, err)
			st, err = routing.RunJob(ctx, cfg)
		}
	}
	s.met.running.SetInt(s.running.Add(-1))
	stopHeartbeat()
	elapsed := time.Since(start)
	cur := j.accountLeg(legSnapshot())

	finalRec := base
	finalRec.Event = runlog.EventFinal
	finalRec.Resumed = resumed
	finalRec.ElapsedSec = elapsed.Seconds()

	switch {
	case err == nil:
		s.met.jobSeconds.Observe(elapsed.Seconds())
		outcome := "done"
		if resumed {
			outcome = "resumed"
		}
		s.met.finished.With(outcome).Inc()
		s.met.jobDuration.With(outcome).Observe(elapsed.Seconds())
		cur = j.finishAccounting(st.NumPaths)
		s.met.queueWait.With(outcome).Observe(cur.QueueWaitSeconds)
		s.met.cpuSeconds.With(outcome).Observe(cur.CPUSeconds)
		finalRec.Resources = cur.runlog()
		doc := statsOf(st)
		cert := certificate(st)
		finalRec.Paths = st.NumPaths
		finalRec.TotalHits = st.TotalHits
		finalRec.MaxVertexHits = st.MaxVertexHits
		finalRec.MaxMetaHits = st.MaxMetaHits
		finalRec.Bound = st.Bound
		finalRec.AdjChecked = st.AdjacencyChecked
		if elapsed.Seconds() > 0 {
			finalRec.PathsPerSec = float64(st.NumPaths) / elapsed.Seconds()
		}
		s.journalEmit(finalRec)
		// Fill the cache, release the single-flight slot, and only then
		// mark the job done: a submission racing the handoff finds the
		// job in flight or the certificate in the cache, and a client
		// that has seen the job done resubmits straight into the cache.
		if err := s.cache.put(&cacheEntry{Key: j.key, Spec: j.spec, Stats: doc, Certificate: cert}); err != nil {
			// The certificate stands; only reuse is lost.
			fmt.Fprintf(os.Stderr, "serve: cache spill: %v\n", err)
		}
		s.releaseInflight(j)
		// Count the job before it reads done, so a client that has seen
		// it done also sees it counted.
		s.met.completed.Inc()
		j.mu.Lock()
		j.state, j.stats, j.cert = StateDone, &doc, cert
		j.mu.Unlock()
		s.finishJob(j)
		j.events.publish(eventFinal, j.Snapshot())
	case errors.Is(err, routing.ErrPaused):
		// Drained by Shutdown: back to queued. The checkpoint holds
		// every completed shard; recovery re-enqueues it on restart.
		// The paused final record still carries the accumulated
		// Resources so far, so journals merged across generations show
		// the cost trajectory leg by leg.
		s.met.finished.With("paused").Inc()
		j.mu.Lock()
		j.state = StateQueued
		j.queuedAt = time.Now() // the next leg's wait starts now
		j.mu.Unlock()
		finalRec.Paused = true
		finalRec.Resources = cur.runlog()
		s.journalEmit(finalRec)
		if err := s.persistSpec(j); err != nil {
			fmt.Fprintf(os.Stderr, "serve: persist %s: %v\n", j.id, err)
		}
	default:
		s.met.finished.With("failed").Inc()
		s.met.jobDuration.With("failed").Observe(elapsed.Seconds())
		cur = j.finishAccounting(0)
		s.met.queueWait.With("failed").Observe(cur.QueueWaitSeconds)
		s.met.cpuSeconds.With("failed").Observe(cur.CPUSeconds)
		finalRec.Resources = cur.runlog()
		s.met.failed.Inc()
		j.mu.Lock()
		j.state, j.errMsg = StateFailed, err.Error()
		j.mu.Unlock()
		finalRec.Error = err.Error()
		s.journalEmit(finalRec)
		s.finishJob(j)
		j.events.publish(eventFinal, j.Snapshot())
	}
}

// releaseInflight frees j's single-flight slot, if j still holds it.
func (s *Server) releaseInflight(j *Job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// finishJob persists a terminal job and releases its single-flight slot.
func (s *Server) finishJob(j *Job) {
	s.releaseInflight(j)
	s.persistJob(j)
	if s.opts.OnJobDone != nil {
		s.opts.OnJobDone(j)
	}
}

// persistSpec writes the job's spec.json, the record recovery needs
// to resume it. It carries the accumulated Resources block (rewritten
// on every shard boundary), so a crash/resume leg starts from the
// previous legs' totals instead of resetting them.
func (s *Server) persistSpec(j *Job) error {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return writeJSON(filepath.Join(j.dir, "spec.json"), specRecord{
		ID: j.id, Key: j.key, Trace: j.trace, Spec: j.spec,
		Resources: j.Resources(),
	})
}

// specRecord is the on-disk spec.json schema. Trace is persisted so a
// resumed job keeps its end-to-end trace across daemon restarts;
// Resources is the job's accumulated cost, so resume legs add to the
// totals instead of starting from zero.
type specRecord struct {
	ID        string        `json:"id"`
	Key       string        `json:"key"`
	Trace     string        `json:"trace,omitempty"`
	Spec      JobSpec       `json:"spec"`
	Resources *ResourcesDoc `json:"resources,omitempty"`
}

// persistJob writes the job's terminal result.json (best-effort: an
// unwritable result only costs restart continuity, not the response).
func (s *Server) persistJob(j *Job) {
	if err := os.MkdirAll(j.dir, 0o755); err == nil {
		if err := writeJSON(filepath.Join(j.dir, "result.json"), j.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "serve: persist %s: %v\n", j.id, err)
		}
	}
}

// recover scans the jobs directory: jobs with a result.json reload as
// terminal records; jobs without one re-enqueue (their checkpoints
// resume where the killed daemon stopped), in original submission
// order so FIFO fairness survives the restart.
func (s *Server) recover() error {
	dir := filepath.Join(s.opts.DataDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // jNNNNNNNN sorts by submission order
	for _, name := range names {
		jdir := filepath.Join(dir, name)
		var specRec specRecord
		if err := readJSON(filepath.Join(jdir, "spec.json"), &specRec); err != nil {
			fmt.Fprintf(os.Stderr, "serve: skipping job dir %s: %v\n", name, err)
			continue
		}
		spec, alg, err := s.normalize(specRec.Spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: skipping job %s: %v\n", name, err)
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, "j%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		if specRec.Trace == "" {
			// Pre-trace job directory: mint one so the resumed run is
			// still traceable end to end.
			specRec.Trace = obs.NewTraceID()
		}
		j := &Job{
			id: name, spec: spec, key: specRec.Key, alg: alg, dir: jdir,
			trace:   specRec.Trace,
			workers: make(map[int]routing.Progress),
		}
		if specRec.Resources != nil {
			// The previous generations' accumulated cost: the next leg
			// adds to these totals rather than resetting them.
			j.acc = *specRec.Resources
		}
		var doc JobDoc
		if err := readJSON(filepath.Join(jdir, "result.json"), &doc); err == nil {
			// Terminal job: reload the record clients may still poll.
			j.state, j.cached = doc.State, doc.Cached
			j.stats, j.cert, j.errMsg = doc.Stats, doc.Certificate, doc.Error
			j.coalesced = doc.Coalesced
			if doc.Resources != nil {
				j.acc = *doc.Resources // final totals beat spec.json's running copy
			}
		} else {
			// Incomplete: resume it. The wait this generation's queue
			// charges the job starts at recovery, not at the original
			// submission — downtime is not queue wait.
			j.state, j.resumed = StateQueued, true
			j.queuedAt = time.Now()
			select {
			case s.queue <- j:
				if s.inflight[j.key] == nil {
					s.inflight[j.key] = j
				}
			default:
				return fmt.Errorf("serve: %d recovered jobs exceed queue depth %d", len(names), s.opts.QueueDepth)
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
	}
	s.met.queueDepth.SetInt(int64(len(s.queue)))
	return nil
}

// Health is the /healthz snapshot provider for the daemon. While the
// server drains (BeginDrain/Shutdown) the status is "draining", so
// load balancers and orchestrators distinguish "about to go away"
// from healthy — and from down.
func (s *Server) Health() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := map[string]int{}
	for _, j := range s.order {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	status := "ok"
	if s.draining {
		status = "draining"
	}
	return map[string]any{
		"status":        status,
		"draining":      s.draining,
		"queue_depth":   len(s.queue),
		"queue_cap":     s.opts.QueueDepth,
		"concurrency":   s.opts.Concurrency,
		"job_workers":   s.opts.JobWorkers,
		"jobs":          counts,
		"cache_entries": s.cache.size(),
		// Process identity (uptime, build info): scrapes and the
		// crash/resume smoke use it to tell daemon generations apart.
		"process": obs.ProcessInfo(),
	}
}

// writeJSON atomically persists v as indented JSON (write tmp, rename).
func writeJSON(path string, v any) error {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode %s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(body, '\n'), 0o644); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// readJSON loads a JSON file into v.
func readJSON(path string, v any) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("serve: decode %s: %w", path, err)
	}
	return nil
}
