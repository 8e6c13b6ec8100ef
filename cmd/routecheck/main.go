// Command routecheck constructs the paper's routings on G_k of a
// catalog algorithm and verifies every claimed hit-count bound. For the
// full routing it also prints a per-rank histogram of vertex hits,
// bucketed from the per-vertex hit vector the verified scan (or, with
// -checkpoint, the completed checkpoint) already holds, so the table
// costs no second enumeration of the pair paths.
//
// Usage:
//
//	routecheck [-alg strassen] [-k 3] [-which full|chains|decoding]
//	           [-workers 0] [-progress] [-adjstride 0]
//	           [-checkpoint run.ckpt] [-resume] [-shardrows 0] [-maxshards 0]
//	           [-journal run.jsonl] [-debugaddr :8080] [-debughold 0]
//	           [-heartbeat 30s] [-sample 10s] [-capturedir DIR]
//	           [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	routecheck -summarize run.jsonl
//
// With -checkpoint, the full routing persists completed shards to the
// given file; a killed run restarted with -resume skips them and
// reports final stats bit-identical to an uninterrupted run. -maxshards
// stops after N new shards (exit code 3) to time-box long runs.
// -journal appends structured JSONL records (see internal/runlog);
// -summarize aggregates such a journal and exits.
//
// With -debugaddr, a debug HTTP server exposes Prometheus-format
// /metrics, a JSON /healthz (latest per-worker progress and checkpoint
// shard coverage), and /debug/pprof; the bound address is printed to
// stderr. -debughold keeps the server up after the run so one-shot
// runs can still be scraped. With -journal, -heartbeat emits a
// heartbeat record carrying the metrics snapshot — and, since schema
// 4, a compact resource snapshot (heap, goroutines, GC pauses, CPU) —
// at that interval. -sample sets the runtime self-telemetry cadence
// (the proc_* metric families); -capturedir enables anomaly-triggered
// pprof captures into a bounded ring served at /debug/captures.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole
// run (flushed on every exit path, including verification failure and
// the -maxshards pause). Verifier workers run under pprof labels
// (worker=N), so `go tool pprof -tagfocus` attributes samples per
// worker.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/obs"
	"pathrouting/internal/routing"
	"pathrouting/internal/runlog"
)

var (
	algName    = flag.String("alg", "strassen", "algorithm name from the catalog")
	k          = flag.Int("k", 3, "recursion depth of G_k")
	which      = flag.String("which", "full", "routing: full (Theorem 2), chains (Lemma 3), decoding (Claim 1)")
	workers    = flag.Int("workers", 0, "worker goroutines for the full routing (0 = GOMAXPROCS)")
	progress   = flag.Bool("progress", false, "print per-worker progress while the full routing verifies")
	adjStride  = flag.Int64("adjstride", 0, "verify every Nth path edge-by-edge (0 = default 257, 1 = every path)")
	orbits     = flag.Bool("orbits", false, "full routing: collapse pair-path orbits (bit-identical stats, ~n₀ᵏ-fold less chain work; -orbits=false cross-checks)")
	orbStage1  = flag.Bool("orbitstage1", false, "with -orbits: use the stage-1 kernel (per-orbit chain rebuilds, one chain walk per path) instead of the fan-aggregated kernel; stats are bit-identical, useful for cross-checks and perf comparison")
	checkpoint = flag.String("checkpoint", "", "persist completed shards of the full routing to this file")
	resume     = flag.Bool("resume", false, "with -checkpoint: skip shards already completed in the checkpoint file")
	shardRows  = flag.Int64("shardrows", 0, "with -checkpoint: enumeration rows per shard (0 = ~1M paths per shard)")
	maxShards  = flag.Int64("maxshards", 0, "with -checkpoint: stop after N new shards, exit 3 (0 = run to completion)")
	journal    = flag.String("journal", "", "append JSONL run records to this file")
	summarize  = flag.String("summarize", "", "summarize a JSONL journal and exit")
	debugAddr  = flag.String("debugaddr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :8080)")
	debugHold  = flag.Duration("debughold", 0, "with -debugaddr: keep the debug server up this long after the run")
	heartbeat  = flag.Duration("heartbeat", 30*time.Second, "with -journal: interval between heartbeat records (0 = off)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (verifier workers carry pprof labels)")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	sampleEach = flag.Duration("sample", 10*time.Second, "runtime self-telemetry sampling cadence, proc_* metrics (0 = off)")
	captureDir = flag.String("capturedir", "", "anomaly pprof capture ring directory (enables /debug/captures; empty = off)")
)

// profileStop flushes at most once: every exit path (normal return,
// fail, the paused os.Exit) funnels through stopProfiles, and the
// paths overlap (fail after the deferred stop is armed).
var profileStop sync.Once

// startProfiles begins CPU profiling per the flags. The matching
// stopProfiles must run on every exit, including the os.Exit paths
// that skip defers, or the profile file is left truncated.
func startProfiles() {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}
}

// stopProfiles flushes the CPU profile and writes the heap profile.
func stopProfiles() {
	profileStop.Do(func() {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		}
	})
}

// debugSrv is the optional debug HTTP server (nil without -debugaddr).
var debugSrv *obs.Server

// health aggregates the live run state served by /healthz.
var health = &healthState{workers: map[int]routing.Progress{}}

type healthState struct {
	mu      sync.Mutex
	workers map[int]routing.Progress
	shards  *routing.ShardDone
}

func (h *healthState) onProgress(p routing.Progress) {
	h.mu.Lock()
	h.workers[p.Worker] = p
	h.mu.Unlock()
}

func (h *healthState) onShard(d routing.ShardDone) {
	h.mu.Lock()
	h.shards = &d
	h.mu.Unlock()
}

// snapshot renders the current run state as the /healthz document.
func (h *healthState) snapshot() any {
	type workerDoc struct {
		Worker  int   `json:"worker"`
		Workers int   `json:"workers"`
		Done    int64 `json:"done_paths"`
		Total   int64 `json:"total_paths"`
		Peak    int64 `json:"peak_vertex_hits"`
		Final   bool  `json:"final"`
	}
	type shardDoc struct {
		Done  int64 `json:"done"`
		Total int64 `json:"total"`
		Last  int64 `json:"last_shard"`
	}
	doc := struct {
		Status  string       `json:"status"`
		Alg     string       `json:"alg"`
		K       int          `json:"k"`
		Which   string       `json:"which"`
		Process obs.ProcInfo `json:"process"`
		Workers []workerDoc  `json:"progress,omitempty"`
		Shards  *shardDoc    `json:"checkpoint_shards,omitempty"`
	}{Status: "ok", Alg: *algName, K: *k, Which: *which, Process: obs.ProcessInfo()}
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]int, 0, len(h.workers))
	for w := range h.workers {
		ids = append(ids, w)
	}
	sort.Ints(ids)
	for _, w := range ids {
		p := h.workers[w]
		doc.Workers = append(doc.Workers, workerDoc{Worker: p.Worker, Workers: p.Workers,
			Done: p.Done, Total: p.Total, Peak: p.PeakVertexHits, Final: p.Final})
	}
	if h.shards != nil {
		doc.Shards = &shardDoc{Done: h.shards.Done, Total: h.shards.Total, Last: h.shards.Shard}
	}
	return doc
}

// chainProgress fans one Progress callback out to several consumers
// (stderr printer, /healthz state); nil entries are dropped and an
// all-nil chain collapses to nil so the hot path skips emission.
func chainProgress(cbs ...func(routing.Progress)) func(routing.Progress) {
	live := cbs[:0]
	for _, cb := range cbs {
		if cb != nil {
			live = append(live, cb)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(p routing.Progress) {
		for _, cb := range live {
			cb(p)
		}
	}
}

// holdDebug parks the process so the debug server outlives a short run
// long enough to be scraped (make obs-smoke relies on this).
func holdDebug() {
	if debugSrv != nil && *debugHold > 0 {
		fmt.Fprintf(os.Stderr, "debug server held for %v\n", *debugHold)
		time.Sleep(*debugHold)
	}
}

// exitPaused signals an intentionally incomplete checkpointed run,
// distinguishable from verification failure (1) in scripts.
const exitPaused = 3

func fail(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

func main() {
	flag.Parse()
	if *summarize != "" {
		s, err := runlog.SummarizeFile(*summarize)
		if err != nil {
			fail(err)
		}
		fmt.Print(s.Format())
		return
	}
	startProfiles()
	defer stopProfiles()
	var alg *bilinear.Algorithm
	for _, a := range bilinear.All() {
		if a.Name == *algName {
			alg = a
		}
	}
	if alg == nil {
		fail(fmt.Errorf("unknown algorithm %q", *algName))
	}
	g, err := cdag.New(alg, *k)
	if err != nil {
		fail(err)
	}

	var jw *runlog.Writer // nil journal is a no-op sink
	if *journal != "" {
		jw, err = runlog.Open(*journal)
		if err != nil {
			fail(err)
		}
		defer jw.Close()
	}
	// Every run gets a trace ID so its journal records — spans,
	// heartbeats, shard completions — group under one identity for
	// routelog, same as routed's service jobs.
	base := runlog.Record{Tool: "routecheck", Alg: alg.Name, K: *k, Workers: *workers,
		Trace: obs.NewTraceID()}
	emit := func(rec runlog.Record) {
		rec.Tool, rec.Alg, rec.K, rec.Workers = base.Tool, base.Alg, base.K, base.Workers
		rec.Trace = base.Trace
		if err := jw.Emit(rec); err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
		}
	}

	reg := obs.NewRegistry()
	// Runtime self-telemetry plus (with -capturedir) the anomaly
	// profiler: the sampler's snapshots feed the capture thresholds,
	// and a tripped threshold lands a pprof capture in the ring.
	var prof *obs.Profiler
	if *captureDir != "" {
		prof, err = obs.NewProfiler(obs.ProfilerConfig{
			Dir:                   *captureDir,
			HeapGrowthBytesPerSec: 1 << 30,
			GCPauseP99Seconds:     0.5,
			Registry:              reg,
		})
		if err != nil {
			fail(err)
		}
	}
	sampler := obs.StartRuntimeSampler(reg, *sampleEach, prof.Consider)
	defer sampler.Stop()
	if *debugAddr != "" {
		debugSrv, err = obs.StartServerMux(*debugAddr, reg, health.snapshot, prof.Mount)
		if err != nil {
			fail(err)
		}
		defer debugSrv.Close()
		fmt.Fprintf(os.Stderr, "debug server listening on %s\n", debugSrv.URL())
	}
	if jw != nil && *heartbeat > 0 {
		stop := obs.StartHeartbeat(jw, base, reg, *heartbeat)
		defer stop()
	}
	defer holdDebug()

	var st routing.Stats
	switch *which {
	case "full":
		r, err := routing.NewRouter(g)
		if err != nil {
			fail(err)
		}
		r.AdjacencySampleStride = *adjStride
		r.OrbitReduction = *orbits
		r.OrbitStage1 = *orbStage1
		r.Obs = routing.NewInstruments(reg)
		r.Obs.Tracer = obs.NewTracer(jw, base)
		var printer func(routing.Progress)
		if *progress {
			printer = progressPrinter()
		}
		r.Progress = chainProgress(printer, health.onProgress)
		if *checkpoint != "" {
			runCheckpointed(r, alg, emit)
			return
		}
		emit(runlog.Record{Event: runlog.EventRunStart})
		var hits []int64
		st, hits, err = r.VerifyFullRoutingHits(*workers)
		if err != nil {
			emit(runlog.Record{Event: runlog.EventViolation, Error: err.Error()})
			fail(err)
		}
		emit(finalRecord(st, false, false))
		if err := r.VerifyChainUsage(); err != nil {
			fail(err)
		}
		fmt.Println("Lemma 4 chain-usage counts verified exact.")
		printHist(os.Stdout, histogram(g, hits))
	case "chains":
		r, err := routing.NewRouter(g)
		if err != nil {
			fail(err)
		}
		st, err = r.VerifyGuaranteedRouting()
		if err != nil {
			fail(err)
		}
	case "decoding":
		dr, err := routing.NewDecodingRouter(g)
		if err != nil {
			fail(err)
		}
		st, err = dr.VerifyClaim1()
		if err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown routing %q", *which))
	}
	fmt.Printf("%s G_%d %s routing: %s\n", alg.Name, *k, *which, st)
	printStatsLine(st)
	fmt.Printf("VERIFIED: max vertex hits %d ≤ bound %d; max meta-vertex hits %d ≤ bound %d\n",
		st.MaxVertexHits, st.Bound, st.MaxMetaHits, st.Bound)
	if st.AdjacencyChecked > 0 {
		fmt.Printf("adjacency verified edge-by-edge on %d paths\n", st.AdjacencyChecked)
	}
}

// runCheckpointed drives the sharded crash-safe verifier and exits. A
// completed run prints the hit histogram from the checkpoint's merged
// hit vector; a paused run prints none.
func runCheckpointed(r *routing.Router, alg *bilinear.Algorithm, emit func(runlog.Record)) {
	emit(runlog.Record{Event: runlog.EventRunStart, Resumed: *resume})
	st, err := r.VerifyFullRoutingCheckpointed(*workers, routing.CheckpointConfig{
		Path:      *checkpoint,
		ShardRows: *shardRows,
		MaxShards: *maxShards,
		Resume:    *resume,
		OnShard: func(d routing.ShardDone) {
			health.onShard(d)
			emit(runlog.Record{Event: runlog.EventShardDone,
				Shard: d.Shard, ShardsDone: d.Done, ShardsTotal: d.Total, ShardPaths: d.Paths})
			if *progress {
				fmt.Fprintf(os.Stderr, "shard %d done (%d paths), %d/%d complete\n",
					d.Shard, d.Paths, d.Done, d.Total)
			}
		},
	})
	switch {
	case err == nil:
		emit(finalRecord(st, *resume, false))
		cp, err := routing.LoadCheckpoint(*checkpoint)
		if err != nil {
			fail(err)
		}
		printHist(os.Stdout, histogram(r.G, cp.Hits))
		fmt.Printf("%s G_%d full routing: %s\n", alg.Name, *k, st)
		printStatsLine(st)
		fmt.Printf("VERIFIED: max vertex hits %d ≤ bound %d; max meta-vertex hits %d ≤ bound %d\n",
			st.MaxVertexHits, st.Bound, st.MaxMetaHits, st.Bound)
	case errors.Is(err, routing.ErrPaused):
		emit(finalRecord(st, *resume, true))
		fmt.Printf("PAUSED: %v\n", err)
		fmt.Printf("rerun with -resume to continue; partial stats: %s\n", st)
		holdDebug() // os.Exit skips the deferred hold
		stopProfiles()
		os.Exit(exitPaused)
	default:
		emit(runlog.Record{Event: runlog.EventViolation, Error: err.Error()})
		fail(err)
	}
}

// printStatsLine prints the deterministic stats fields on one line —
// everything in Stats except wall time — so interrupted+resumed and
// uninterrupted runs can be compared byte-for-byte (make verify-resume
// does exactly that).
func printStatsLine(st routing.Stats) {
	fmt.Printf("stats: paths=%d totalHits=%d maxVertexHits=%d maxMetaHits=%d bound=%d adjChecked=%d\n",
		st.NumPaths, st.TotalHits, st.MaxVertexHits, st.MaxMetaHits, st.Bound, st.AdjacencyChecked)
}

// finalRecord converts Stats to the journal's final-event record.
func finalRecord(st routing.Stats, resumed, paused bool) runlog.Record {
	rec := runlog.Record{
		Event:         runlog.EventFinal,
		Paths:         st.NumPaths,
		TotalHits:     st.TotalHits,
		MaxVertexHits: st.MaxVertexHits,
		MaxMetaHits:   st.MaxMetaHits,
		Bound:         st.Bound,
		AdjChecked:    st.AdjacencyChecked,
		ElapsedSec:    st.Elapsed.Seconds(),
		Resumed:       resumed,
		Paused:        paused,
	}
	if st.Elapsed > 0 {
		rec.PathsPerSec = float64(st.NumPaths) / st.Elapsed.Seconds()
	}
	return rec
}

// progressPrinter returns a concurrency-safe routing.Progress callback
// printing one line per snapshot to stderr.
func progressPrinter() func(routing.Progress) {
	var mu sync.Mutex
	return func(p routing.Progress) {
		mu.Lock()
		defer mu.Unlock()
		state := "…"
		if p.Final {
			state = "done"
		}
		fmt.Fprintf(os.Stderr, "worker %d/%d: %d/%d paths, peak vertex hits %d %s\n",
			p.Worker+1, p.Workers, p.Done, p.Total, p.PeakVertexHits, state)
	}
}

// histogram buckets per-vertex hit counts (indexed by vertex ID) by
// global rank: entry rk holds {max, total} over the rank-rk vertices,
// for ranks 0..2k+1.
func histogram(g *cdag.Graph, hits []int64) [][2]int64 {
	byRank := make([][2]int64, 2*g.R+2)
	for v, h := range hits {
		b := &byRank[g.GlobalRank(cdag.V(v))]
		b[0] = max(b[0], h)
		b[1] += h
	}
	return byRank
}

func printHist(w io.Writer, hist [][2]int64) {
	fmt.Fprintf(w, "%-6s %-10s %-12s\n", "rank", "maxHits", "totalHits")
	for rk, b := range hist {
		fmt.Fprintf(w, "%-6d %-10d %-12d\n", rk, b[0], b[1])
	}
}
