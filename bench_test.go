package pathrouting

// Benchmark harness: one benchmark per experiment of EXPERIMENTS.md
// (E1–E12, plus ablations A1–A8 and A10). The paper has no empirical tables —
// its checkable content is the set of theorems, lemmas and figures — so
// each benchmark both
// times the operation and reports the reproduction metric (measured /
// bound ratios etc.) via b.ReportMetric. cmd/paperrepro prints the full
// tables the metrics summarize.

import (
	"math/rand"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/core"
	"pathrouting/internal/hall"
	"pathrouting/internal/obs"
	"pathrouting/internal/parallel"
	"pathrouting/internal/pebble"
	"pathrouting/internal/routing"
	"pathrouting/internal/schedule"
	"pathrouting/internal/viz"
)

// BenchmarkE1SequentialIO measures the I/O of the blocked recursive
// schedule under MIN replacement against the Theorem 1 lower bound.
// The reported metric io/bound must stay in a constant band as r grows
// — the headline optimality statement.
func BenchmarkE1SequentialIO(b *testing.B) {
	for _, tc := range []struct {
		alg *Algorithm
		r   int
		m   int
	}{
		{Strassen(), 4, 48},
		{Strassen(), 5, 48},
		{Winograd(), 4, 48},
		{DisconnectedFast(), 2, 96},
	} {
		g, err := cdag.New(tc.alg, tc.r)
		if err != nil {
			b.Fatal(err)
		}
		sched := schedule.RecursiveDFS(g)
		b.Run(tc.alg.Name+"/r="+itoa(tc.r), func(b *testing.B) {
			var io int64
			for i := 0; i < b.N; i++ {
				res, err := (&pebble.Simulator{G: g, M: tc.m, P: pebble.MIN}).Run(sched)
				if err != nil {
					b.Fatal(err)
				}
				io = res.IO()
			}
			n := 1.0
			for i := 0; i < tc.r; i++ {
				n *= float64(tc.alg.N0)
			}
			lb := SequentialLowerBound(tc.alg, n, float64(tc.m))
			b.ReportMetric(float64(io)/lb, "io/bound")
		})
	}
}

// BenchmarkE2DecodingRouting verifies Claim 1's (11·7ᵏ)-routing in the
// decoding graph of Strassen's algorithm and reports the slack
// maxHits·bound⁻¹ (must be ≤ 1).
func BenchmarkE2DecodingRouting(b *testing.B) {
	for k := 1; k <= 3; k++ {
		g, err := cdag.New(bilinear.Strassen(), k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("strassen/k="+itoa(k), func(b *testing.B) {
			var st routing.Stats
			for i := 0; i < b.N; i++ {
				dr, err := routing.NewDecodingRouter(g)
				if err != nil {
					b.Fatal(err)
				}
				st, err = dr.VerifyClaim1()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.MaxVertexHits)/float64(st.Bound), "hits/bound")
		})
	}
}

// BenchmarkE3RoutingTheorem verifies the 6aᵏ-routing of Theorem 2 for
// every catalog algorithm and reports the hit-count slack.
func BenchmarkE3RoutingTheorem(b *testing.B) {
	for _, tc := range []struct {
		alg *Algorithm
		k   int
	}{
		{Strassen(), 2},
		{Strassen(), 3},
		{Winograd(), 2},
		{Classical(2), 2},
		{DisconnectedFast(), 1},
	} {
		g, err := cdag.New(tc.alg, tc.k)
		if err != nil {
			b.Fatal(err)
		}
		r, err := routing.NewRouter(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.alg.Name+"/k="+itoa(tc.k), func(b *testing.B) {
			var st routing.Stats
			for i := 0; i < b.N; i++ {
				var err error
				st, err = r.VerifyFullRouting()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.MaxVertexHits)/float64(st.Bound), "hits/bound")
			b.ReportMetric(float64(st.MaxMetaHits)/float64(st.Bound), "metahits/bound")
		})
	}
}

// BenchmarkE4GuaranteedDeps verifies the Lemma 3 chain routing
// (2n₀ᵏ bound).
func BenchmarkE4GuaranteedDeps(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		g, err := cdag.New(bilinear.Strassen(), k)
		if err != nil {
			b.Fatal(err)
		}
		r, err := routing.NewRouter(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("strassen/k="+itoa(k), func(b *testing.B) {
			var st routing.Stats
			for i := 0; i < b.N; i++ {
				var err error
				st, err = r.VerifyGuaranteedRouting()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.MaxVertexHits)/float64(st.Bound), "hits/bound")
		})
	}
}

// BenchmarkE5ChainComposition verifies Lemma 4's exact 3n₀ᵏ chain-usage
// count.
func BenchmarkE5ChainComposition(b *testing.B) {
	for _, k := range []int{2, 3} {
		g, err := cdag.New(bilinear.Strassen(), k)
		if err != nil {
			b.Fatal(err)
		}
		r, err := routing.NewRouter(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("strassen/k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.VerifyChainUsage(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6HallCondition checks Lemma 5's Hall condition exhaustively
// for n₀ = 2 algorithms and by max-flow for the rest of the catalog.
func BenchmarkE6HallCondition(b *testing.B) {
	algs := Catalog()
	b.Run("flow/catalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, alg := range algs {
				if _, err := routing.NewBaseMatching(alg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("exhaustive/strassen", func(b *testing.B) {
		alg := bilinear.Strassen()
		for i := 0; i < b.N; i++ {
			for _, side := range []Side{SideA, SideB} {
				deps := routing.GuaranteedBaseDeps(alg, side)
				viol := hall.CheckHall(len(deps), alg.B(),
					func(x int) []int { return routing.DepProducts(alg, side, deps[x][0], deps[x][1]) },
					func(int) int { return alg.N0 })
				if viol != nil {
					b.Fatalf("Hall violated: %v", viol)
				}
			}
		}
	})
}

// BenchmarkE7SegmentBoundary runs the executable segment argument
// (Equation (2)) on Strassen G_4 and reports the worst δ′/S̄ ratio
// (must be ≥ 1/12 ≈ 0.083). The deep=2 legs are E7's configuration:
// the first two segments also re-derive Equation (2) by counting the
// routing paths that cross their boundary in each of the 49 collection
// subcomputations.
func BenchmarkE7SegmentBoundary(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []ScheduleKind{ScheduleDFS, ScheduleRankByRank} {
		name := "dfs"
		if kind == ScheduleRankByRank {
			name = "rank"
		}
		sched, err := BuildSchedule(g, kind, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, deep := range []int{0, 2} {
			b.Run(name+"/deep="+itoa(deep), func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					cert, err := core.Certify(g, sched, core.Options{K: 2, RelaxedTarget: 8, DeepSegments: deep})
					if err != nil {
						b.Fatal(err)
					}
					ratio = cert.MinDeltaRatio
				}
				b.ReportMetric(ratio, "min-delta-ratio")
			})
		}
	}
}

// BenchmarkE8InputDisjoint measures the Lemma 1 input-disjoint
// collection density (must be ≥ 1/b² = 1/49 for Strassen).
func BenchmarkE8InputDisjoint(b *testing.B) {
	for _, tc := range []struct{ r, k int }{{4, 2}, {5, 3}} {
		g, err := cdag.New(bilinear.Strassen(), tc.r)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("strassen/r="+itoa(tc.r), func(b *testing.B) {
			var picked int
			for i := 0; i < b.N; i++ {
				picked = len(g.InputDisjointCollection(tc.k))
			}
			nSub := 1
			for i := 0; i < tc.r-tc.k; i++ {
				nSub *= 7
			}
			b.ReportMetric(float64(picked)/float64(nSub), "density")
		})
	}
}

// BenchmarkE9DecodingNoCopy exercises the Lemma 2 / Lemma 6 structural
// checks across the catalog.
func BenchmarkE9DecodingNoCopy(b *testing.B) {
	algs := Catalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alg := range algs {
			st := bilinear.Analyze(alg)
			if st.DecodingHasCopy {
				b.Fatalf("%s: decoding copy", alg.Name)
			}
		}
	}
}

// BenchmarkE10ParallelBW compares Cannon, 2.5D, and CAPS bandwidth and
// reports CAPS's ratio to the memory-independent lower bound.
func BenchmarkE10ParallelBW(b *testing.B) {
	b.Run("cannon/P=1024", func(b *testing.B) {
		var bw int64
		for i := 0; i < b.N; i++ {
			res, err := RunCannon(1024, 32)
			if err != nil {
				b.Fatal(err)
			}
			bw = res.Bandwidth
		}
		b.ReportMetric(float64(bw), "words")
	})
	b.Run("25d/P=1024c4", func(b *testing.B) {
		var bw int64
		for i := 0; i < b.N; i++ {
			res, err := RunTwoPointFiveD(1024, 16, 4)
			if err != nil {
				b.Fatal(err)
			}
			bw = res.Bandwidth
		}
		b.ReportMetric(float64(bw), "words")
	})
	b.Run("caps/P=343", func(b *testing.B) {
		alg := Strassen()
		var bw int64
		for i := 0; i < b.N; i++ {
			res, err := RunCAPS(alg, 1024, 343, 1<<40)
			if err != nil {
				b.Fatal(err)
			}
			bw = res.Bandwidth
		}
		lb := MemoryIndependentLowerBound(alg, 1024, 343)
		b.ReportMetric(float64(bw)/lb, "bw/bound")
	})
}

// BenchmarkE11Crossover times the real arithmetic of blocked classical
// versus recursive fast multiplication around the bound-predicted
// crossover regime.
func BenchmarkE11Crossover(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{64, 128, 256} {
		a, bb := RandomDense(n, n, rng), RandomDense(n, n, rng)
		b.Run("classical/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulBlocked(a, bb, 32)
			}
		})
		b.Run("strassen/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulFast(Strassen(), a, bb, 32)
			}
		})
	}
}

// BenchmarkE12Render regenerates the paper's illustrative figures.
func BenchmarkE12Render(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 2)
	if err != nil {
		b.Fatal(err)
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		b.Fatal(err)
	}
	chain, _ := r.AppendChain(SideA, 0, 1, nil)
	for i := 0; i < b.N; i++ {
		_ = viz.BaseGraphDOT(bilinear.Strassen())
		_ = viz.PathDOT(g, chain, "figure 4")
		_ = viz.Lemma4ASCII(4, 0, 1, 2, 3)
		_ = viz.HGraphDOT(bilinear.Strassen(), SideA, 1, 0)
		_ = viz.G1CircleDOT(bilinear.Strassen(), 1, []int{0, 1, 2})
	}
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

// BenchmarkA1MatchingAblation measures the greedy-vs-Hall matching
// ablation: the greedy assignment overloads products and (at depth)
// breaks the Routing Theorem bound the Hall matching guarantees.
func BenchmarkA1MatchingAblation(b *testing.B) {
	var cmp routing.MatchingComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = routing.CompareMatchings(bilinear.Strassen(), 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cmp.HallMaxHits)/float64(cmp.Bound), "hall-hits/bound")
	b.ReportMetric(float64(cmp.GreedyHits)/float64(cmp.Bound), "greedy-hits/bound")
}

// BenchmarkA2Section8 verifies the value-class (Section 8 conjecture)
// routing bound on the assumption-violating catalog entry: 512 pair
// paths at k=1, 131,072 at k=2.
func BenchmarkA2Section8(b *testing.B) {
	for _, k := range []int{1, 2} {
		g, err := cdag.New(bilinear.DisconnectedFast(), k)
		if err != nil {
			b.Fatal(err)
		}
		r, err := routing.NewRouter(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("k="+itoa(k), func(b *testing.B) {
			var st routing.Stats
			for i := 0; i < b.N; i++ {
				st, err = r.VerifyValueClassRouting()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.MaxMetaHits)/float64(st.Bound), "classhits/bound")
		})
	}
}

// BenchmarkA3Partition measures the rank-balanced partition
// communication against the cache-independent bound.
func BenchmarkA3Partition(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 5)
	if err != nil {
		b.Fatal(err)
	}
	alg := bilinear.Strassen()
	for _, p := range []int{4, 16, 49} {
		b.Run("P="+itoa(p), func(b *testing.B) {
			var res parallel.PartitionResult
			for i := 0; i < b.N; i++ {
				res, err = parallel.RankBalancedPartition(g, p, parallel.Contiguous, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			lb := MemoryIndependentLowerBound(alg, 32, p)
			b.ReportMetric(float64(res.CriticalPath)/lb, "words/bound")
		})
	}
}

// BenchmarkA4Lemma6 runs the exhaustive Winograd-bound check on the
// n₀ = 2 base graphs.
func BenchmarkA4Lemma6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, alg := range []*bilinear.Algorithm{bilinear.Strassen(), bilinear.Winograd(), bilinear.Classical(2)} {
			if err := bilinear.VerifyLemma6Exhaustive(alg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkA5PolicyAblation compares replacement policies on the same
// schedule (MIN is the offline optimum; LRU's gap is the price of not
// knowing the future).
func BenchmarkA5PolicyAblation(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 4)
	if err != nil {
		b.Fatal(err)
	}
	sched := schedule.RecursiveDFS(g)
	var ios [3]float64
	for i, pol := range []pebble.Policy{pebble.MIN, pebble.LRU, pebble.FIFO} {
		b.Run(pol.String(), func(b *testing.B) {
			var io int64
			for j := 0; j < b.N; j++ {
				res, err := (&pebble.Simulator{G: g, M: 48, P: pol}).Run(sched)
				if err != nil {
					b.Fatal(err)
				}
				io = res.IO()
			}
			ios[i] = float64(io)
			if i > 0 {
				b.ReportMetric(ios[i]/ios[0], "io/min-io")
			}
		})
	}
}

// BenchmarkSimulatorRun times one Simulator.Run of the DFS schedule of
// Strassen G_5 at M = 48 under each policy, the pebble-r5 workload's
// runs, with the graph's CSR index built beforehand. allocs/op counts
// the run's dense tables; it does not depend on the schedule length.
func BenchmarkSimulatorRun(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 5)
	if err != nil {
		b.Fatal(err)
	}
	sched := schedule.RecursiveDFS(g)
	g.EnsureAdjacencyIndex()
	for _, pol := range []pebble.Policy{pebble.MIN, pebble.LRU, pebble.FIFO} {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			var io int64
			for i := 0; i < b.N; i++ {
				res, err := (&pebble.Simulator{G: g, M: 48, P: pol}).Run(sched)
				if err != nil {
					b.Fatal(err)
				}
				io = res.IO()
			}
			b.ReportMetric(float64(io), "io")
		})
	}
}

// BenchmarkStackDistances times pebble.AnalyzeStackDistances on the DFS
// schedule of Strassen G_5, the pebble-r5 workload's stack-distance
// pass, with the graph's CSR index built beforehand.
func BenchmarkStackDistances(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 5)
	if err != nil {
		b.Fatal(err)
	}
	sched := schedule.RecursiveDFS(g)
	g.EnsureAdjacencyIndex()
	b.ReportAllocs()
	b.ResetTimer()
	var maxDist int
	for i := 0; i < b.N; i++ {
		mc, err := pebble.AnalyzeStackDistances(g, sched)
		if err != nil {
			b.Fatal(err)
		}
		maxDist = mc.MaxDistance()
	}
	b.ReportMetric(float64(maxDist), "maxdist")
}

// BenchmarkCertify times core.Certify on the DFS schedule of Strassen
// G_5 (K = 2, relaxed target 8: 3,385 segments), the pebble-r5
// workload's certification. allocs/op does not depend on the number of
// segments.
func BenchmarkCertify(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 5)
	if err != nil {
		b.Fatal(err)
	}
	sched := schedule.RecursiveDFS(g)
	g.EnsureAdjacencyIndex()
	g.EnsureMetaRootIndex()
	b.ReportAllocs()
	b.ResetTimer()
	var segs int
	for i := 0; i < b.N; i++ {
		cert, err := core.Certify(g, sched, core.Options{K: 2, RelaxedTarget: 8})
		if err != nil {
			b.Fatal(err)
		}
		segs = cert.CompleteSegments
	}
	b.ReportMetric(float64(segs), "segments")
}

// BenchmarkA6FastCutoff sweeps the recursion cutoff of the real
// arithmetic (the classic Strassen tuning knob).
func BenchmarkA6FastCutoff(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	a, bb := RandomDense(128, 128, rng), RandomDense(128, 128, rng)
	for _, cutoff := range []int{8, 16, 32, 64} {
		b.Run("cutoff="+itoa(cutoff), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulFast(Strassen(), a, bb, cutoff)
			}
		})
	}
}

// BenchmarkA7ParallelVerification compares sequential and concurrent
// Routing Theorem verification (the check is embarrassingly parallel
// over inputs). The parallel legs run two workers on any host, so the
// gated suite, which runs at GOMAXPROCS 1, still times the parallel
// engine's split and merge. The instrumented variant runs the same
// parallel verification with the full metric bundle attached — its gap
// to "parallel" is the observability overhead (metric flushes are
// batched at progress-snapshot cadence, so the gap must stay within
// noise).
func BenchmarkA7ParallelVerification(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 4)
	if err != nil {
		b.Fatal(err)
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.VerifyFullRouting(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.VerifyFullRoutingParallel(2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-instrumented", func(b *testing.B) {
		r.Obs = routing.NewInstruments(obs.NewRegistry())
		defer func() { r.Obs = nil }()
		for i := 0; i < b.N; i++ {
			if _, err := r.VerifyFullRoutingParallel(2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerifyFullRoutingAdjacency measures the verification hot
// path with full (stride 1) edge-by-edge adjacency checking of every
// pair path through the CSR adjacency index.
func BenchmarkVerifyFullRoutingAdjacency(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 3)
	if err != nil {
		b.Fatal(err)
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		b.Fatal(err)
	}
	r.AdjacencySampleStride = 1
	g.EnsureAdjacencyIndex() // pay the one-time build outside the timer
	b.Run("csr", func(b *testing.B) {
		var st routing.Stats
		for i := 0; i < b.N; i++ {
			var err error
			st, err = r.VerifyFullRouting()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(st.PathsPerSecond(), "paths/s")
	})
}

// BenchmarkA10OrbitReduction measures the orbit-reduced full-routing
// scan against full enumeration at Strassen k=4: same bit-identical
// Stats, but instead of three chain constructions plus a quadratic
// meta-root dedup scan per path, the fan kernel credits each shared
// chain once per orbit and each junction's fan once per row range.
// Each mode runs one and two workers on any host, so the benchmark
// names do not depend on the core count. Run via `make bench`;
// EXPERIMENTS.md A10 holds the table measured with the retired stage-1
// orbit kernel, A15 the fan kernel's.
func BenchmarkA10OrbitReduction(b *testing.B) {
	g, err := cdag.New(bilinear.Strassen(), 4)
	if err != nil {
		b.Fatal(err)
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		orbits bool
	}{
		{"full", false},
		{"orbit", true},
	} {
		for _, w := range []int{1, 2} {
			b.Run("mode="+mode.name+"/workers="+itoa(w), func(b *testing.B) {
				r.OrbitReduction = mode.orbits
				defer func() { r.OrbitReduction = false }()
				b.ReportAllocs()
				var st routing.Stats
				for i := 0; i < b.N; i++ {
					var err error
					st, err = r.VerifyFullRoutingParallel(w)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(st.PathsPerSecond(), "paths/s")
			})
		}
	}
}

// BenchmarkA8ParallelMultiply compares the sequential and concurrent
// fast multiplies on real arithmetic.
func BenchmarkA8ParallelMultiply(b *testing.B) {
	rng := rand.New(rand.NewSource(88))
	a, bb := RandomDense(256, 256, rng), RandomDense(256, 256, rng)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulFast(Strassen(), a, bb, 32)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulFastParallel(Strassen(), a, bb, 32, 0)
		}
	})
}
