// Command paperrepro runs the full experiment suite E1–E14 of the
// reproduction (see DESIGN.md and EXPERIMENTS.md) and prints the
// resulting tables. Each experiment makes one family of the paper's
// claims executable and reports measured quantities next to the
// claimed bounds.
//
// Usage:
//
//	paperrepro [-experiment all|E1|...|E14] [-quick] [-dotdir DIR] [-csvdir DIR]
//	           [-progress] [-orbits] [-journal run.jsonl] [-checkpointdir DIR] [-resume]
//	           [-debugaddr :8080] [-heartbeat 30s] [-sample 10s] [-capturedir DIR]
//	           [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//
// With -checkpointdir, the heavy E3 routing verifications run through
// the sharded checkpoint engine, persisting per-case checkpoint files
// there; re-running with -resume skips completed shards. -journal
// appends structured JSONL records (see internal/runlog) for the E3
// runs, summarizable with `routecheck -summarize`.
//
// With -debugaddr, a debug HTTP server exposes Prometheus-format
// /metrics (routing and pebble instrument families), a JSON /healthz
// with the latest per-experiment progress, and /debug/pprof. With
// -journal, -heartbeat emits heartbeat records carrying the metrics
// snapshot at that interval.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/bounds"
	"pathrouting/internal/cdag"
	"pathrouting/internal/core"
	"pathrouting/internal/expansion"
	"pathrouting/internal/hall"
	"pathrouting/internal/obs"
	"pathrouting/internal/parallel"
	"pathrouting/internal/pebble"
	"pathrouting/internal/routing"
	"pathrouting/internal/runlog"
	"pathrouting/internal/schedule"
	"pathrouting/internal/viz"
)

var (
	experiment = flag.String("experiment", "all", "experiment id (E1..E14) or all")
	quick      = flag.Bool("quick", false, "smaller parameter sweeps")
	dotDir     = flag.String("dotdir", "", "directory to write E12 DOT figures (default: print names only)")
	csvDir     = flag.String("csvdir", "", "directory to also write machine-readable CSV series")
	progress   = flag.Bool("progress", false, "print per-worker progress (stderr) during the heavy routing verifications (E3)")
	orbits     = flag.Bool("orbits", false, "run the E3 verifications orbit-reduced (bit-identical stats, faster; -orbits=false cross-checks)")
	journal    = flag.String("journal", "", "append JSONL run records for the E3 verifications to this file")
	ckptDir    = flag.String("checkpointdir", "", "run E3 verifications through per-case checkpoint files in this directory")
	resume     = flag.Bool("resume", false, "with -checkpointdir: skip shards already completed in existing checkpoints")
	debugAddr  = flag.String("debugaddr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :8080)")
	heartbeat  = flag.Duration("heartbeat", 30*time.Second, "with -journal: interval between heartbeat records (0 = off)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (verifier workers carry pprof labels)")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	sampleEach = flag.Duration("sample", 10*time.Second, "runtime self-telemetry sampling cadence, proc_* metrics (0 = off)")
	captureDir = flag.String("capturedir", "", "anomaly pprof capture ring directory (enables /debug/captures; empty = off)")
)

// obsReg collects every instrument family of the process; it backs both
// the -debugaddr /metrics endpoint and the -journal heartbeats.
var obsReg = obs.NewRegistry()

// pebbleIn instruments the pebble-game simulators of E1/E7/E11
// (initialized in main, after the registry exists for sure).
var pebbleIn *pebble.Instruments

// healthProg holds the latest Progress per experiment tag for /healthz.
var (
	healthMu   sync.Mutex
	healthProg = map[string]routing.Progress{}
)

func healthDoc() any {
	type progDoc struct {
		Tag   string `json:"tag"`
		Done  int64  `json:"done_paths"`
		Total int64  `json:"total_paths"`
		Peak  int64  `json:"peak_vertex_hits"`
		Final bool   `json:"final"`
	}
	doc := struct {
		Status     string    `json:"status"`
		Experiment string    `json:"experiment"`
		Progress   []progDoc `json:"progress,omitempty"`
	}{Status: "ok", Experiment: *experiment}
	healthMu.Lock()
	defer healthMu.Unlock()
	tags := make([]string, 0, len(healthProg))
	for tag := range healthProg {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		p := healthProg[tag]
		doc.Progress = append(doc.Progress, progDoc{Tag: tag,
			Done: p.Done, Total: p.Total, Peak: p.PeakVertexHits, Final: p.Final})
	}
	return doc
}

// journalWriter is the shared (possibly nil — nil is a valid no-op
// sink) run journal, opened lazily on first use.
var (
	journalW    *runlog.Writer
	journalOnce sync.Once
)

func journalWriter() *runlog.Writer {
	journalOnce.Do(func() {
		if *journal == "" {
			return
		}
		w, err := runlog.Open(*journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
			return
		}
		journalW = w
	})
	return journalW
}

// progressPrinter returns a concurrency-safe routing.Progress callback
// feeding /healthz (and stderr with -progress), or nil when neither
// consumer is active.
func progressPrinter(tag string) func(routing.Progress) {
	if !*progress && *debugAddr == "" {
		return nil
	}
	var mu sync.Mutex
	return func(p routing.Progress) {
		healthMu.Lock()
		healthProg[tag] = p
		healthMu.Unlock()
		if !*progress {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		state := "…"
		if p.Final {
			state = "done"
		}
		fmt.Fprintf(os.Stderr, "[%s] worker %d/%d: %d/%d paths, peak vertex hits %d %s\n",
			tag, p.Worker+1, p.Workers, p.Done, p.Total, p.PeakVertexHits, state)
	}
}

// csvOut appends rows to <csvdir>/<name>.csv (header written once per
// process). No-op when -csvdir is unset.
var csvSeen = map[string]bool{}

func csvOut(name string, header []string, rows [][]string) {
	if *csvDir == "" {
		return
	}
	path := filepath.Join(*csvDir, name+".csv")
	var f *os.File
	var err error
	if !csvSeen[name] {
		f, err = os.Create(path)
		if err == nil {
			w := csv.NewWriter(f)
			_ = w.Write(header)
			w.Flush()
		}
		csvSeen[name] = true
	} else {
		f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	defer f.Close()
	w := csv.NewWriter(f)
	for _, row := range rows {
		_ = w.Write(row)
	}
	w.Flush()
}

func main() {
	flag.Parse()
	defer func() { journalW.Close() }() // nil-safe; only non-nil once e3 opened it
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}
	pebbleIn = pebble.NewInstruments(obsReg)
	// Runtime self-telemetry (proc_* families) plus, with -capturedir,
	// the anomaly-triggered pprof capture ring under /debug/captures.
	var prof *obs.Profiler
	if *captureDir != "" {
		p, err := obs.NewProfiler(obs.ProfilerConfig{
			Dir:                   *captureDir,
			HeapGrowthBytesPerSec: 1 << 30,
			GCPauseP99Seconds:     0.5,
			Registry:              obsReg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		prof = p
	}
	sampler := obs.StartRuntimeSampler(obsReg, *sampleEach, prof.Consider)
	defer sampler.Stop()
	if *debugAddr != "" {
		srv, err := obs.StartServerMux(*debugAddr, obsReg, healthDoc, prof.Mount)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server listening on %s\n", srv.URL())
	}
	if jw := journalWriter(); jw != nil && *heartbeat > 0 {
		stop := obs.StartHeartbeat(jw, runlog.Record{Tool: "paperrepro"}, obsReg, *heartbeat)
		defer stop()
	}
	runs := map[string]func(){
		"E1": e1, "E2": e2, "E3": e3, "E4": e4, "E5": e5, "E6": e6,
		"E7": e7, "E8": e8, "E9": e9, "E10": e10, "E11": e11, "E12": e12,
		"E13": e13, "E14": e14,
	}
	if *experiment == "all" {
		ids := make([]string, 0, len(runs))
		for id := range runs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if len(ids[i]) != len(ids[j]) {
				return len(ids[i]) < len(ids[j])
			}
			return ids[i] < ids[j]
		})
		for _, id := range ids {
			runs[id]()
		}
		return
	}
	run, ok := runs[strings.ToUpper(*experiment)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	run()
}

func header(id, title string) {
	fmt.Printf("\n=== %s: %s ===\n", id, title)
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	return v
}

func mustGraph(alg *bilinear.Algorithm, r int) *cdag.Graph { return must(cdag.New(alg, r)) }

// e1: Theorem 1 — measured DFS-schedule I/O against the sequential
// lower bound, with an exponent fit across r.
func e1() {
	header("E1", "Theorem 1 sequential I/O: measured vs Ω((n/√M)^ω₀·M)")
	fmt.Printf("%-16s %-3s %-5s %-10s %-10s %-12s %-8s\n", "algorithm", "r", "M", "IO(MIN)", "IO(LRU)", "Θ-bound", "IO/bound")
	type pt struct{ r, io float64 }
	cases := []struct {
		alg  *bilinear.Algorithm
		rMax int
		m    int
	}{
		{bilinear.Strassen(), 6, 48},
		{bilinear.Winograd(), 5, 48},
		{bilinear.DisconnectedFast(), 3, 200},
	}
	if lad, err := bilinear.Laderman(); err == nil {
		cases = append(cases, struct {
			alg  *bilinear.Algorithm
			rMax int
			m    int
		}{lad, 3, 100})
	}
	for _, c := range cases {
		rMax := c.rMax
		if *quick {
			rMax--
		}
		var pts []pt
		for r := 2; r <= rMax; r++ {
			g := mustGraph(c.alg, r)
			sched := schedule.RecursiveDFS(g)
			minIO := must((&pebble.Simulator{G: g, M: c.m, P: pebble.MIN, Obs: pebbleIn}).Run(sched)).IO()
			lruIO := must((&pebble.Simulator{G: g, M: c.m, P: pebble.LRU, Obs: pebbleIn}).Run(sched)).IO()
			n := math.Pow(float64(c.alg.N0), float64(r))
			lb := bounds.Theorem1Sequential(c.alg.Omega0(), n, float64(c.m))
			fmt.Printf("%-16s %-3d %-5d %-10d %-10d %-12.0f %-8.2f\n",
				c.alg.Name, r, c.m, minIO, lruIO, lb, float64(minIO)/lb)
			csvOut("e1_sequential_io",
				[]string{"algorithm", "r", "M", "io_min", "io_lru", "theta_bound"},
				[][]string{{c.alg.Name, strconv.Itoa(r), strconv.Itoa(c.m),
					strconv.FormatInt(minIO, 10), strconv.FormatInt(lruIO, 10),
					strconv.FormatFloat(lb, 'f', 0, 64)}})
			pts = append(pts, pt{float64(r), float64(minIO)})
		}
		// The DFS I/O obeys IO(r) = A·b^r − c·a^r (recurrence
		// IO(r) = b·IO(r−1) + Θ(a^r)), so the per-level growth ratio
		// approaches b = n₀^ω₀ from above. Report the ratio trend and
		// the asymptotic coefficient A extracted from consecutive
		// sizes: A should stabilize, certifying the Θ((n/√M)^ω₀·M)
		// shape.
		bF := float64(c.alg.B())
		aF := float64(c.alg.A())
		fmt.Printf("  per-level IO growth for %s (→ b = %.0f):", c.alg.Name, bF)
		for i := 1; i < len(pts); i++ {
			fmt.Printf(" %.2f", pts[i].io/pts[i-1].io)
		}
		fmt.Println()
		if len(pts) >= 2 {
			fmt.Printf("  asymptotic coefficient A in IO = A·b^r − c·a^r:")
			for i := 1; i < len(pts); i++ {
				r1 := pts[i-1].r
				// Solve A·b^r1 − c·a^r1 = io1; A·b^(r1+1) − c·a^(r1+1) = io2.
				b1, a1 := math.Pow(bF, r1), math.Pow(aF, r1)
				det := b1*bF*a1 - b1*a1*aF
				A := (pts[i].io*a1 - pts[i-1].io*a1*aF) / det
				fmt.Printf(" %.3f", A)
			}
			fmt.Println()
		}
	}
}

// e2: Claim 1 — the decoding-graph routing of Section 5.
func e2() {
	header("E2", "Claim 1: (11·7ᵏ)-routing in Strassen's decoding graph D_k")
	fmt.Printf("%-3s %-10s %-10s %-12s %-8s\n", "k", "paths", "maxHits", "bound", "slack")
	kMax := 4
	if *quick {
		kMax = 3
	}
	for k := 1; k <= kMax; k++ {
		g := mustGraph(bilinear.Strassen(), k)
		dr := must(routing.NewDecodingRouter(g))
		st := must(dr.VerifyClaim1())
		fmt.Printf("%-3d %-10d %-10d %-12d %-8.3f\n", k, st.NumPaths, st.MaxVertexHits, st.Bound,
			float64(st.MaxVertexHits)/float64(st.Bound))
	}
	fmt.Println("negative control (disconnected decoding -> Section 5 inapplicable):")
	for _, alg := range []*bilinear.Algorithm{bilinear.Classical(2), bilinear.DisconnectedFast()} {
		g := mustGraph(alg, 1)
		if _, err := routing.NewDecodingRouter(g); err != nil {
			fmt.Printf("  %-16s %v\n", alg.Name, err)
		} else {
			fmt.Printf("  %-16s UNEXPECTEDLY ROUTABLE\n", alg.Name)
		}
	}
}

// e3: Theorem 2 — the full 6aᵏ-routing.
func e3() {
	header("E3", "Routing Theorem: 6aᵏ-routing between inputs and outputs of G_k")
	fmt.Printf("%-16s %-3s %-10s %-10s %-10s %-12s %-8s %s\n",
		"algorithm", "k", "paths", "maxHits", "maxMeta", "bound 6aᵏ", "slack", "throughput")
	cases := []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 1}, {bilinear.Strassen(), 2}, {bilinear.Strassen(), 3},
		{bilinear.Winograd(), 2}, {bilinear.Classical(2), 2}, {bilinear.Classical(3), 1},
		{bilinear.StrassenSquared(), 1}, {bilinear.DisconnectedFast(), 1},
	}
	if !*quick {
		cases = append(cases, struct {
			alg *bilinear.Algorithm
			k   int
		}{bilinear.Strassen(), 4})
		if lad, err := bilinear.Laderman(); err == nil {
			cases = append(cases, struct {
				alg *bilinear.Algorithm
				k   int
			}{lad, 2})
		}
	}
	for _, c := range cases {
		g := mustGraph(c.alg, c.k)
		r := must(routing.NewRouter(g))
		r.OrbitReduction = *orbits
		r.Progress = progressPrinter(fmt.Sprintf("E3 %s k=%d", c.alg.Name, c.k))
		jw := journalWriter()
		// One trace per E3 configuration run, so routelog reconstructs
		// each A-series waterfall from the journal.
		trace := obs.NewTraceID()
		r.Obs = routing.NewInstruments(obsReg)
		r.Obs.Tracer = obs.NewTracer(jw, runlog.Record{Tool: "paperrepro", Alg: c.alg.Name, K: c.k, Trace: trace})
		emit := func(rec runlog.Record) {
			rec.Tool, rec.Alg, rec.K = "paperrepro", c.alg.Name, c.k
			rec.Trace = trace
			if err := jw.Emit(rec); err != nil {
				fmt.Fprintln(os.Stderr, "journal:", err)
			}
		}
		emit(runlog.Record{Event: runlog.EventRunStart, Resumed: *resume})
		var st routing.Stats
		var err error
		if *ckptDir != "" {
			st, err = r.VerifyFullRoutingCheckpointed(0, routing.CheckpointConfig{
				Path:   filepath.Join(*ckptDir, fmt.Sprintf("e3-%s-k%d.ckpt", c.alg.Name, c.k)),
				Resume: *resume,
				OnShard: func(d routing.ShardDone) {
					emit(runlog.Record{Event: runlog.EventShardDone,
						Shard: d.Shard, ShardsDone: d.Done, ShardsTotal: d.Total, ShardPaths: d.Paths})
				},
			})
		} else {
			st, err = r.VerifyFullRoutingParallel(0)
		}
		if err != nil {
			emit(runlog.Record{Event: runlog.EventViolation, Error: err.Error()})
		}
		st = must(st, err)
		rec := runlog.Record{Event: runlog.EventFinal, Paths: st.NumPaths,
			TotalHits: st.TotalHits, MaxVertexHits: st.MaxVertexHits, MaxMetaHits: st.MaxMetaHits,
			Bound: st.Bound, AdjChecked: st.AdjacencyChecked,
			ElapsedSec: st.Elapsed.Seconds(), PathsPerSec: st.PathsPerSecond(), Resumed: *resume}
		emit(rec)
		fmt.Printf("%-16s %-3d %-10d %-10d %-10d %-12d %-8.3f %8.3g paths/s\n",
			c.alg.Name, c.k, st.NumPaths, st.MaxVertexHits, st.MaxMetaHits, st.Bound,
			float64(st.MaxVertexHits)/float64(st.Bound), st.PathsPerSecond())
	}
}

// e4: Lemma 3 — guaranteed-dependency chain routing.
func e4() {
	header("E4", "Lemma 3: 2n₀ᵏ-routing of guaranteed dependencies (chains only)")
	fmt.Printf("%-16s %-3s %-10s %-10s %-12s\n", "algorithm", "k", "chains", "maxHits", "bound 2n₀ᵏ")
	cases := []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 2}, {bilinear.Strassen(), 3}, {bilinear.Strassen(), 4},
		{bilinear.Winograd(), 3}, {bilinear.Classical(2), 3}, {bilinear.DisconnectedFast(), 2},
	}
	if *quick {
		cases = cases[:4]
	}
	for _, c := range cases {
		g := mustGraph(c.alg, c.k)
		r := must(routing.NewRouter(g))
		st := must(r.VerifyGuaranteedRouting())
		fmt.Printf("%-16s %-3d %-10d %-10d %-12d\n", c.alg.Name, c.k, st.NumPaths, st.MaxVertexHits, st.Bound)
	}
}

// e5: Lemma 4 — exact chain-usage counting.
func e5() {
	header("E5", "Lemma 4: every guaranteed-dependency chain used exactly 3n₀ᵏ times")
	for _, c := range []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 2}, {bilinear.Strassen(), 3}, {bilinear.Classical(3), 2},
	} {
		r := must(routing.NewRouter(mustGraph(c.alg, c.k)))
		if err := r.VerifyChainUsage(); err != nil {
			fmt.Printf("%-16s k=%d FAIL: %v\n", c.alg.Name, c.k, err)
		} else {
			want := 3 * int64(math.Pow(float64(c.alg.N0), float64(c.k)))
			fmt.Printf("%-16s k=%d OK: every chain used exactly %d times\n", c.alg.Name, c.k, want)
		}
	}
}

// e6: Lemma 5 / Theorem 3 — Hall condition and the matching.
func e6() {
	header("E6", "Lemma 5: Hall condition |N(D)| ≥ |D|/n₀ and the many-to-one matching")
	fmt.Printf("%-16s %-5s %-9s %-12s %-14s\n", "algorithm", "side", "matched", "maxUse≤n₀", "exhaustive")
	for _, alg := range bilinear.All() {
		bm, err := routing.NewBaseMatching(alg)
		if err != nil {
			fmt.Printf("%-16s %-5s MATCHING FAILED: %v\n", alg.Name, "-", err)
			continue
		}
		maxUse := must(bm.VerifyCapacities())
		for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
			ex := "skipped (|X|>24)"
			deps := routing.GuaranteedBaseDeps(alg, side)
			if len(deps) <= 24 {
				viol := hall.CheckHall(len(deps), alg.B(),
					func(x int) []int { return routing.DepProducts(alg, side, deps[x][0], deps[x][1]) },
					func(int) int { return alg.N0 })
				if viol == nil {
					ex = "holds (all 2^|X| subsets)"
				} else {
					ex = fmt.Sprintf("VIOLATED at %v", viol)
				}
			}
			fmt.Printf("%-16s %-5v %-9s %-12d %-14s\n", alg.Name, side, "yes", maxUse, ex)
		}
	}
	fmt.Println("negative control (crippled decoder must violate the Hall condition):")
	bad := bilinear.Strassen()
	for t := 1; t < bad.B(); t++ {
		bad.W[0][t] = bad.W[0][t].Sub(bad.W[0][t])
		bad.W[1][t] = bad.W[1][t].Sub(bad.W[1][t])
	}
	if _, err := routing.NewBaseMatching(bad); err != nil {
		fmt.Printf("  detected: %v\n", err)
	} else {
		fmt.Println("  NOT DETECTED — Lemma 5 checker broken")
	}
}

// e7: Equations (1)/(2) — the segment argument.
func e7() {
	header("E7", "Equation (2): |δ′(S′)| ≥ |S̄|/12 over schedule segments")
	fmt.Printf("%-10s %-10s %-9s %-10s %-12s %-12s\n", "schedule", "segments", "minRatio", "collection", "certified", "deepPaths")
	g := mustGraph(bilinear.Strassen(), 4)
	rng := rand.New(rand.NewSource(3))
	for _, sc := range []struct {
		name  string
		sched []cdag.V
	}{
		{"dfs", schedule.RecursiveDFS(g)},
		{"rank", schedule.RankByRank(g)},
		{"random", must(schedule.RandomTopological(g, rng))},
	} {
		cert, err := core.Certify(g, sc.sched, core.Options{K: 2, RelaxedTarget: 8, DeepSegments: 2})
		if err != nil {
			fmt.Printf("%-10s FAIL: %v\n", sc.name, err)
			continue
		}
		var deep int64
		for _, s := range cert.Segments {
			deep += s.CrossingPaths
		}
		fmt.Printf("%-10s %-10d %-9.3f %-10d %-12s %-12d\n",
			sc.name, cert.CompleteSegments, cert.MinDeltaRatio, cert.CollectionSize, "(relaxed)", deep)
	}
	// The simpler Section 5 argument (Equation (1), decoding-only).
	g5 := mustGraph(bilinear.Strassen(), 5)
	s5 := must(core.CertifySection5(g5, schedule.RecursiveDFS(g5), 4, 1))
	fmt.Printf("Section 5 (Eq. 1, r=5, k=4, M=1): segments=%d minRatio=%.3f ≥ 1/22 certified=%d\n",
		s5.CompleteSegments, s5.MinDeltaRatio, s5.CertifiedIO)
	if _, err := core.CertifySection5(mustGraph(bilinear.Classical(2), 5), schedule.RecursiveDFS(mustGraph(bilinear.Classical(2), 5)), 4, 1); err != nil {
		fmt.Printf("Section 5 on classical2: refused as expected (%v)\n", err)
	}
	if !*quick {
		fmt.Println("full paper constants (r=7, k=5, M=14):")
		g7 := mustGraph(bilinear.Strassen(), 7)
		sched := schedule.RecursiveDFS(g7)
		cert := must(core.Certify(g7, sched, core.Options{K: 5, M: 14}))
		measured := must((&pebble.Simulator{G: g7, M: 14, P: pebble.MIN, Obs: pebbleIn}).Run(sched))
		fmt.Printf("  segments=%d certified IO≥%d measured IO=%d closed-form=%d minRatio=%.3f\n",
			cert.CompleteSegments, cert.CertifiedIO, measured.IO(),
			bounds.ProofSequential(bilinear.Strassen(), 7, 14), cert.MinDeltaRatio)
		// Parallel step: busiest processor of a balanced owner table.
		owner := make([]int32, g5.NumVertices())
		for v := range owner {
			owner[v] = int32(v % 4)
		}
		par := must(core.CertifyParallel(g5, schedule.RecursiveDFS(g5), owner, 4, 2, 0, 8))
		fmt.Printf("  parallel step (P=4, relaxed): busiest proc %d holds %d counted; %d segments, minRatio=%.3f\n",
			par.BusiestProc, par.BusiestCounted, par.CompleteSegments, par.MinDeltaRatio)
	}
}

// e8: Lemma 1 — input-disjoint subcomputation density.
func e8() {
	header("E8", "Lemma 1: ≥ 1/b² of subcomputations are mutually input-disjoint")
	fmt.Printf("%-16s %-3s %-3s %-8s %-8s %-10s %-10s\n", "algorithm", "r", "k", "picked", "total", "density", "bound 1/b²")
	cases := []struct {
		alg  *bilinear.Algorithm
		r, k int
	}{
		{bilinear.Strassen(), 4, 2}, {bilinear.Strassen(), 5, 2}, {bilinear.Strassen(), 5, 3},
		{bilinear.Winograd(), 4, 2}, {bilinear.Classical(2), 4, 2}, {bilinear.DisconnectedFast(), 3, 1},
	}
	if *quick {
		cases = cases[:3]
	}
	for _, c := range cases {
		g := mustGraph(c.alg, c.r)
		picked := g.InputDisjointCollection(c.k)
		total := int64(math.Pow(float64(c.alg.B()), float64(c.r-c.k)))
		fmt.Printf("%-16s %-3d %-3d %-8d %-8d %-10.4f %-10.4f\n",
			c.alg.Name, c.r, c.k, len(picked), total,
			float64(len(picked))/float64(total), 1/float64(c.alg.B()*c.alg.B()))
	}
}

// e9: Lemma 2 / structural table.
func e9() {
	header("E9", "base-graph structure: connectivity, copying, assumption, Lemma 2")
	fmt.Printf("%-16s %-4s %-4s %-8s %-9s %-9s %-10s %-9s\n",
		"algorithm", "ω₀", "fast", "decComp", "multCopy", "oneMult", "decNoCopy", "expansion")
	for _, alg := range bilinear.All() {
		st := bilinear.Analyze(alg)
		rep := expansion.Analyze(alg)
		expStr := "usable"
		if !rep.EdgeExpansionUsable {
			expStr = "FAILS"
		}
		fmt.Printf("%-16s %-4.2f %-4v %-8d %-9v %-9v %-10v %-9s\n",
			alg.Name, alg.Omega0(), alg.IsFast(), st.DecComponents,
			st.MultipleCopying(bilinear.SideA) || st.MultipleCopying(bilinear.SideB),
			st.SatisfiesOneMultiplicationPerCombination(), !st.DecodingHasCopy, expStr)
	}
}

// e10: the parallel corollaries of Theorem 1.
func e10() {
	header("E10", "parallel bandwidth: Cannon vs 2.5D vs CAPS, and the P-scaling exponent")
	n := 4096
	if *quick {
		n = 1024
	}
	fmt.Printf("%-14s %-7s %-12s %-12s %-14s\n", "algorithm", "P", "bandwidth", "mem/proc", "LB (Θ-form)")
	for _, p := range []int{4, 8, 16, 32} {
		if n%p != 0 {
			continue
		}
		res := must(parallel.Cannon(n, p))
		fmt.Printf("%-14s %-7d %-12d %-12d %-14.0f\n", "cannon", res.P, res.Bandwidth, res.MemoryPerProc,
			parallel.ClassicalLowerBound2D(float64(n), res.P))
	}
	for _, grid := range [][2]int{{16, 4}, {32, 4}} {
		if n%grid[0] != 0 {
			continue
		}
		res := must(parallel.TwoPointFiveD(n, grid[0], grid[1]))
		fmt.Printf("%-14s %-7d %-12d %-12d %-14.0f\n", "2.5d(c=4)", res.P, res.Bandwidth, res.MemoryPerProc,
			parallel.ClassicalLowerBound2D(float64(n), res.P)/2)
	}
	alg := bilinear.Strassen()
	type pt struct{ p, bw float64 }
	var pts []pt
	capsPs := []int{7, 49, 343}
	if !*quick {
		capsPs = append(capsPs, 2401, 16807)
	}
	for _, p := range capsPs {
		res := must(parallel.CAPS(alg, n, p, 1<<44))
		lb := bounds.MemoryIndependent(alg.Omega0(), float64(n), p)
		fmt.Printf("%-14s %-7d %-12d %-12d %-14.0f\n", "caps", p, res.Bandwidth, res.PeakMemory, lb)
		csvOut("e10_parallel_bw",
			[]string{"algorithm", "P", "bandwidth", "lower_bound"},
			[][]string{{"caps", strconv.Itoa(p), strconv.FormatInt(res.Bandwidth, 10),
				strconv.FormatFloat(lb, 'f', 0, 64)}})
		pts = append(pts, pt{float64(p), float64(res.Bandwidth)})
	}
	// Fit the P-scaling exponent bandwidth ∝ P^(−s) from the largest
	// consecutive pair (the exact cost is C·n²·((b/a)^log_b P − 1)/P,
	// which converges to the Theorem 1 exponent s = 2/ω₀ from below as
	// the level count grows).
	if len(pts) >= 2 {
		last, prev := pts[len(pts)-1], pts[len(pts)-2]
		s := math.Log(prev.bw/last.bw) / math.Log(last.p/prev.p)
		fmt.Printf("CAPS P-scaling exponent (largest pair): %.3f → 2/ω₀ = %.3f\n", s, 2/alg.Omega0())
	}
	// Memory-limited CAPS against the memory-dependent bound.
	fmt.Println("memory-limited CAPS (P=49):")
	for _, mFactor := range []int64{4, 16, 64} {
		m := 3*int64(n)*int64(n)/49 + int64(n)*mFactor
		res, err := parallel.CAPS(alg, n, 49, m)
		if err != nil {
			fmt.Printf("  M=%-12d %v\n", m, err)
			continue
		}
		lb := bounds.Theorem1Parallel(alg.Omega0(), float64(n), float64(m), 49)
		fmt.Printf("  M=%-12d BW=%-12d BFS/DFS=%d/%d  LB=%.0f\n", m, res.Bandwidth, res.BFSLevels, res.DFSLevels, lb)
	}
}

// e11: crossover between classical and fast, bound-predicted and
// pebble-measured.
func e11() {
	header("E11", "classical vs fast crossover: bound curves and measured I/O")
	alg := bilinear.Strassen()
	fmt.Printf("%-8s %-14s %-14s %-10s\n", "M", "crossover n", "classical@n", "fast@n")
	for _, m := range []float64{256, 1024, 4096, 16384} {
		x := bounds.CrossoverN(alg.Omega0(), m)
		fmt.Printf("%-8.0f %-14.0f %-14.3g %-10.3g\n", m, x,
			bounds.HongKungClassical(x, m), bounds.Theorem1Sequential(alg.Omega0(), x, m))
	}
	fmt.Println("measured pebble I/O at equal n, M (classical CDAG vs Strassen CDAG, DFS+MIN):")
	fmt.Printf("%-4s %-6s %-12s %-12s %-8s\n", "n", "M", "classical", "strassen", "winner")
	rMax := 6
	if *quick {
		rMax = 4
	}
	for r := 3; r <= rMax; r++ {
		n := 1 << r
		m := 24
		gc := mustGraph(bilinear.Classical(2), r)
		gs := mustGraph(bilinear.Strassen(), r)
		ioC := must((&pebble.Simulator{G: gc, M: m, P: pebble.MIN, Obs: pebbleIn}).Run(schedule.RecursiveDFS(gc))).IO()
		ioS := must((&pebble.Simulator{G: gs, M: m, P: pebble.MIN, Obs: pebbleIn}).Run(schedule.RecursiveDFS(gs))).IO()
		winner := "classical"
		if ioS < ioC {
			winner = "strassen"
		}
		fmt.Printf("%-4d %-6d %-12d %-12d %-8s\n", n, m, ioC, ioS, winner)
	}
}

// e12: figures.
func e12() {
	header("E12", "figures 1–9 as DOT/ASCII")
	g := mustGraph(bilinear.Strassen(), 2)
	r := must(routing.NewRouter(g))
	chain, _ := r.AppendChain(bilinear.SideA, 1, 0, nil)
	var root cdag.V = -1
	for v := cdag.V(0); int(v) < g.NumVertices(); v++ {
		if g.IsCopy(v) {
			root = g.MetaRoot(v)
			break
		}
	}
	sched := schedule.RecursiveDFS(g)
	figures := map[string]string{
		"fig1-basegraph.dot":  viz.BaseGraphDOT(bilinear.Strassen()),
		"fig2-metavertex.dot": viz.MetaVertexDOT(g, root),
		"fig4-chain.dot":      viz.PathDOT(g, chain, "guaranteed-dependency chain in G_2"),
		"fig5-segment.dot":    viz.SegmentDOT(mustGraph(bilinear.Strassen(), 1), pebble.MetaClosure(g1(), schedule.RecursiveDFS(g1())[:6])),
		"fig6-lemma4.txt":     viz.Lemma4ASCII(4, 0, 1, 2, 3),
		"fig8-matchingH.dot":  viz.HGraphDOT(bilinear.Strassen(), bilinear.SideA, 1, 0),
		"fig9-g1circle.dot":   viz.G1CircleDOT(bilinear.Strassen(), 1, []int{0, 1, 3}),
	}
	_ = sched
	names := make([]string, 0, len(figures))
	for name := range figures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if *dotDir == "" {
			fmt.Printf("  %s (%d bytes) — pass -dotdir to write\n", name, len(figures[name]))
			continue
		}
		path := filepath.Join(*dotDir, name)
		if err := os.WriteFile(path, []byte(figures[name]), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s\n", path)
	}
	fmt.Println(viz.Lemma4ASCII(3, 0, 1, 2, 2))
}

func g1() *cdag.Graph { return mustGraph(bilinear.Strassen(), 1) }

// e13: extensions and ablations beyond the paper's proven statements.
func e13() {
	header("E13", "extensions & ablations: Section 8 conjecture, matching ablation, partitions, Lemma 6, random orbits")

	fmt.Println("Section 8 (value-class identification — the one-vertex-per-value model):")
	fmt.Printf("%-16s %-3s %-9s %-12s %-12s %-10s\n", "algorithm", "k", "sharing", "classHits", "bound 6aᵏ", "holds")
	for _, c := range []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 2}, {bilinear.Classical(2), 2},
		{bilinear.DisconnectedFast(), 1}, {bilinear.DisconnectedFast(), 2},
	} {
		g := mustGraph(c.alg, c.k)
		r := must(routing.NewRouter(g))
		st, err := r.VerifyValueClassRouting()
		holds := err == nil
		fmt.Printf("%-16s %-3d %-9v %-12d %-12d %-10v\n",
			c.alg.Name, c.k, g.HasValueSharing(), st.MaxMetaHits, st.Bound, holds)
	}

	fmt.Println("\nHall matching vs greedy first-fit (why Theorem 3's capacity matters):")
	fmt.Printf("%-16s %-3s %-12s %-10s %-10s %-12s %-12s\n",
		"algorithm", "k", "bound 6aᵏ", "hallLoad", "hallHits", "greedyLoad", "greedyHits")
	for _, c := range []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 2}, {bilinear.Strassen(), 3}, {bilinear.Winograd(), 2},
	} {
		cmp := must(routing.CompareMatchings(c.alg, c.k))
		verdict := ""
		if !cmp.GreedyOK {
			verdict = "  <- greedy BREAKS the bound"
		}
		fmt.Printf("%-16s %-3d %-12d %-10d %-10d %-12d %-12d%s\n",
			cmp.Alg, cmp.K, cmp.Bound, cmp.HallLoad, cmp.HallMaxHits, cmp.GreedyLoad, cmp.GreedyHits, verdict)
	}

	fmt.Println("\nrank-balanced CDAG partitions vs the cache-independent bound (Strassen G_5, n = 32):")
	fmt.Printf("%-6s %-12s %-14s %-14s %-16s\n", "P", "style", "crossEdges", "criticalPath", "LB n²/P^(2/ω₀)")
	g5 := mustGraph(bilinear.Strassen(), 5)
	rng := rand.New(rand.NewSource(12))
	w := bilinear.Strassen().Omega0()
	for _, p := range []int{4, 16, 49} {
		for _, style := range []parallel.PartitionStyle{parallel.Contiguous, parallel.Shuffled} {
			res := must(parallel.RankBalancedPartition(g5, p, style, rng))
			fmt.Printf("%-6d %-12v %-14d %-14d %-16.0f\n",
				p, style, res.CrossEdges, res.CriticalPath, bounds.MemoryIndependent(w, 32, p))
		}
	}

	fmt.Println("\nLemma 6 (Winograd bound on G₁° instances):")
	for _, alg := range []*bilinear.Algorithm{bilinear.Strassen(), bilinear.Winograd(), bilinear.Classical(2)} {
		if err := bilinear.VerifyLemma6Exhaustive(alg); err != nil {
			fmt.Printf("  %-16s FAIL: %v\n", alg.Name, err)
		} else {
			fmt.Printf("  %-16s holds on all %d product subsets × %d rows\n", alg.Name, 1<<uint(alg.B()), alg.N0)
		}
	}
	lad, err := bilinear.Laderman()
	if err == nil {
		if err := bilinear.VerifyLemma6Random(lad, rng, 300); err != nil {
			fmt.Printf("  %-16s FAIL: %v\n", lad.Name, err)
		} else {
			fmt.Printf("  %-16s holds on 300 random subsets × 3 rows\n", lad.Name)
		}
	}

	fmt.Println("\nrandom symmetry-orbit algorithms (full pipeline on machine-generated instances):")
	nOrbit := 5
	if *quick {
		nOrbit = 2
	}
	for i := 0; i < nOrbit; i++ {
		alg, err := bilinear.RandomAlgorithm(rng, nil)
		if err != nil {
			fmt.Printf("  draw %d: %v\n", i, err)
			continue
		}
		g := mustGraph(alg, 2)
		if err := g.Validate(rng); err != nil {
			fmt.Printf("  draw %d: CDAG INVALID: %v\n", i, err)
			continue
		}
		r, err := routing.NewRouter(g)
		if err != nil {
			fmt.Printf("  draw %d: matching failed: %v\n", i, err)
			continue
		}
		st, err := r.VerifyFullRouting()
		if err != nil {
			fmt.Printf("  draw %d: %v\n", i, err)
			continue
		}
		fmt.Printf("  draw %d: verified (maxHits %d ≤ %d)\n", i, st.MaxVertexHits, st.Bound)
	}
}

// e14: Mattson miss curves — the whole LRU miss curve of each schedule
// in one pass, against the Theorem 1 bound curve over M.
func e14() {
	header("E14", "LRU miss curves (Mattson stack distances) vs the bound curve over M")
	alg := bilinear.Strassen()
	r := 4
	if !*quick {
		r = 5
	}
	g := mustGraph(alg, r)
	n := math.Pow(2, float64(r))
	dfs := must(pebble.AnalyzeStackDistances(g, schedule.RecursiveDFS(g)))
	rank := must(pebble.AnalyzeStackDistances(g, schedule.RankByRank(g)))
	hybrid2 := must(pebble.AnalyzeStackDistances(g, schedule.HybridDFS(g, 2)))
	fmt.Printf("Strassen G_%d: %d accesses, %d compulsory\n", r, dfs.Accesses, dfs.Compulsory)
	fmt.Printf("%-8s %-12s %-12s %-12s %-12s\n", "M", "misses(dfs)", "misses(hyb2)", "misses(rank)", "Thm1 LB")
	for m := 8; m <= 1<<(2*r+1); m *= 4 {
		lb := bounds.Theorem1Sequential(alg.Omega0(), n, float64(m))
		fmt.Printf("%-8d %-12d %-12d %-12d %-12.0f\n",
			m, dfs.MissesAt(m), hybrid2.MissesAt(m), rank.MissesAt(m), lb)
		csvOut("e14_miss_curves",
			[]string{"M", "misses_dfs", "misses_hybrid2", "misses_rank", "theta_bound"},
			[][]string{{strconv.Itoa(m), strconv.FormatInt(dfs.MissesAt(m), 10),
				strconv.FormatInt(hybrid2.MissesAt(m), 10),
				strconv.FormatInt(rank.MissesAt(m), 10),
				strconv.FormatFloat(lb, 'f', 0, 64)}})
	}
	fmt.Printf("max reuse distance: dfs=%d hybrid2=%d rank=%d (the cache size where each\n",
		dfs.MaxDistance(), hybrid2.MaxDistance(), rank.MaxDistance())
	fmt.Println("schedule becomes compulsory-only; compare liveness peaks below)")
	lvD := must(pebble.AnalyzeLiveness(g, schedule.RecursiveDFS(g)))
	lvR := must(pebble.AnalyzeLiveness(g, schedule.RankByRank(g)))
	fmt.Printf("liveness peaks: dfs=%d rank=%d\n", lvD.Peak, lvR.Peak)
}
