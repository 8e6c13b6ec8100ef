package routing

import (
	"fmt"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// Stats reports the verified properties of a routing.
type Stats struct {
	// NumPaths is the number of paths in the routing.
	NumPaths int64
	// TotalHits is the summed length of all paths.
	TotalHits int64
	// MaxVertexHits is the largest number of times any single vertex is
	// used collectively by the routing (the m of an m-routing).
	MaxVertexHits int64
	// MaxMetaHits is the analogue over meta-vertices (all vertices
	// carrying the same value).
	MaxMetaHits int64
	// Bound is the paper's claimed bound for this routing.
	Bound int64
	// AdjacencyChecked is the number of paths whose every consecutive
	// pair was verified adjacent in G (see Router.AdjacencySampleStride).
	AdjacencyChecked int64
	// Elapsed is the wall time of the verification pass. It is
	// observability, not part of the verified claim: two runs over the
	// same routing agree on every other field but not on Elapsed, so
	// equivalence comparisons must ignore (or zero) it.
	Elapsed time.Duration
}

func (s Stats) String() string {
	out := fmt.Sprintf("paths=%d maxVertexHits=%d maxMetaHits=%d bound=%d",
		s.NumPaths, s.MaxVertexHits, s.MaxMetaHits, s.Bound)
	if s.Elapsed > 0 {
		out += fmt.Sprintf(" (%.3gs, %.3g paths/s)", s.Elapsed.Seconds(), s.PathsPerSecond())
	}
	return out
}

// PathsPerSecond returns the verification throughput, or 0 when no
// timing was recorded.
func (s Stats) PathsPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.NumPaths) / s.Elapsed.Seconds()
}

// Progress is a periodic observability snapshot from a running
// VerifyFullRouting / VerifyFullRoutingParallel, delivered to
// Router.Progress. Snapshots arrive concurrently from several workers;
// the callback must be safe for concurrent use.
type Progress struct {
	// Worker identifies the reporting worker in [0, Workers).
	Worker int
	// Workers is the total worker count of this verification.
	Workers int
	// Done is the number of pair paths this worker has enumerated.
	Done int64
	// Total is the number of pair paths assigned to this worker.
	Total int64
	// PeakVertexHits is the largest per-vertex hit count in this
	// worker's local accumulator so far (the global maximum is the
	// final Stats.MaxVertexHits, available only after the merge).
	PeakVertexHits int64
	// Final marks the worker's last snapshot.
	Final bool
}

// checkAdjacent verifies that consecutive path vertices are joined by
// an edge of G in either direction (routings ignore edge direction),
// through the graph's CSR adjacency index.
func checkAdjacent(g *cdag.Graph, u, v cdag.V) bool {
	return g.Adjacent(u, v)
}

// checkAdjacentScan is the seed implementation of checkAdjacent: a
// per-edge linear scan over freshly enumerated parent slices. Kept only
// as the baseline Router.LinearAdjacency selects, so benchmarks can
// measure what the CSR index buys.
func checkAdjacentScan(g *cdag.Graph, u, v cdag.V) bool {
	for _, e := range g.Parents(v) {
		if e.To == u {
			return true
		}
	}
	for _, e := range g.Parents(u) {
		if e.To == v {
			return true
		}
	}
	return false
}

// adjacent dispatches between the CSR index and the legacy scan.
func (r *Router) adjacent(u, v cdag.V) bool {
	if r.LinearAdjacency {
		return checkAdjacentScan(r.G, u, v)
	}
	return checkAdjacent(r.G, u, v)
}

// checkChain verifies that the path is a chain: each vertex the parent
// of the next (chains are directed, unlike the undirected pair-path
// adjacency above).
func checkChain(g *cdag.Graph, path []cdag.V) error {
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			return fmt.Errorf("routing: not a chain: no edge %s -> %s",
				g.Label(path[i]), g.Label(path[i+1]))
		}
	}
	return nil
}

// VerifyGuaranteedRouting enumerates the Lemma 3 routing (one chain per
// guaranteed dependency of G_k, both sides) and verifies that it
// consists of chains, that each chain connects its dependency's input to
// its output, and that no vertex is hit more than 2n₀ᵏ times.
func (r *Router) VerifyGuaranteedRouting() (Stats, error) {
	start := time.Now()
	g := r.G
	hits := make(hitVec, g.NumVertices())
	st := Stats{Bound: 2 * r.powN[r.k]}
	var firstErr error
	r.ForEachGuaranteedChain(func(side bilinear.Side, in, out int64, chain []cdag.V) {
		if firstErr != nil {
			return
		}
		st.NumPaths++
		st.TotalHits += int64(len(chain))
		if len(chain) != 2*r.k+2 {
			firstErr = fmt.Errorf("routing: chain length %d, want %d", len(chain), 2*r.k+2)
			return
		}
		wantIn := g.InputA(in)
		if side == bilinear.SideB {
			wantIn = g.InputB(in)
		}
		if chain[0] != wantIn || chain[len(chain)-1] != g.Output(out) {
			firstErr = fmt.Errorf("routing: chain endpoints %s..%s for dep (%d,%d)",
				g.Label(chain[0]), g.Label(chain[len(chain)-1]), in, out)
			return
		}
		if err := checkChain(g, chain); err != nil {
			firstErr = err
			return
		}
		for _, v := range chain {
			hits.bump(v)
		}
	})
	st.Elapsed = time.Since(start)
	if firstErr != nil {
		return st, firstErr
	}
	st.MaxVertexHits = hits.max()
	if st.MaxVertexHits > st.Bound {
		return st, fmt.Errorf("routing: %s G_%d: Lemma 3 violated: vertex hit %d > 2n₀ᵏ = %d",
			g.Alg.Name, r.k, st.MaxVertexHits, st.Bound)
	}
	return st, nil
}

// VerifyFullRouting enumerates the Routing Theorem routing (a path for
// every input–output pair of G_k) and verifies path validity, the
// per-vertex hit bound 6aᵏ, and the per-meta-vertex hit bound 6aᵏ.
// Every AdjacencySampleStride-th path is additionally verified edge by
// edge against G's adjacency. It is the one-worker instance of
// VerifyFullRoutingParallel and returns bit-identical Stats (Elapsed
// aside) and identical errors.
func (r *Router) VerifyFullRouting() (Stats, error) {
	st, _, err := r.verifyFullRouting(1)
	return st, err
}

// VerifyChainUsage checks the exact counting claim inside Lemma 4's
// proof: composed over all input–output pairs of both sides, every
// guaranteed-dependency chain is used exactly 3n₀ᵏ times.
func (r *Router) VerifyChainUsage() error {
	useA, useB := r.chainUsage()
	return r.checkChainUsage(useA, useB)
}

// chainUsage counts, over every input–output pair of both sides, the
// uses of each guaranteed chain by the pair's Lemma 4 path.
//
// A guaranteed chain is determined by its input plus the k free output
// digits (the columns for an A-chain, the rows for a B-chain), so the
// counters live in two dense []int64 of size aᵏ·n₀ᵏ indexed by
// in·n₀ᵏ + free, with the free digits packed base n₀. The pairs are
// enumerated by their four packed digit vectors — the input's row and
// column digits, the output's row and column digits — and every packed
// multi-index a path needs is the sum of two spread-table entries,
// rowSpread[rows] + colSpread[cols], so no pair pays a per-slot loop.
func (r *Router) chainUsage() (useA, useB []int64) {
	n0 := int64(r.n0)
	n0K := r.powN[r.k]
	useA = make([]int64, r.powA[r.k]*n0K)
	useB = make([]int64, r.powA[r.k]*n0K)
	// colSpread[f] places the base-n₀ digits of f as the column digits
	// of a packed multi-index, rowSpread[f] as its row digits.
	rowSpread := make([]int64, n0K)
	colSpread := make([]int64, n0K)
	for f := int64(1); f < n0K; f++ {
		// f = n₀·(f/n₀) + f%n₀: shift the higher digits one slot left.
		colSpread[f] = colSpread[f/n0]*r.a + f%n0
		rowSpread[f] = colSpread[f] * n0
	}
	for fIn := int64(0); fIn < n0K; fIn++ { // row digits of the input
		for fJn := int64(0); fJn < n0K; fJn++ { // column digits of the input
			in := rowSpread[fIn] + colSpread[fJn]
			for fOi := int64(0); fOi < n0K; fOi++ { // row digits of the output
				aIn := rowSpread[fOi] + colSpread[fIn]
				for fOj := int64(0); fOj < n0K; fOj++ { // column digits of the output
					// A-side source: a_ij → c_ij′ → b_jj′ → c_i′j′.
					bIn := rowSpread[fJn] + colSpread[fOj]
					useA[in*n0K+fOj]++  // chain a_ij → c_{i,j′}
					useB[bIn*n0K+fIn]++ // chain b_jj′ → c_{i,j′}
					useB[bIn*n0K+fOi]++ // chain b_jj′ → c_{i′,j′}
					// B-side source: b_ij → c_i′j → a_i′i → c_i′j′.
					useB[in*n0K+fOi]++  // chain b_ij → c_{i′,j}
					useA[aIn*n0K+fJn]++ // chain a_i′i → c_{i′,j}
					useA[aIn*n0K+fOj]++ // chain a_i′i → c_{i′,j′}
				}
			}
		}
	}
	return useA, useB
}

// checkChainUsage requires every counter of chainUsage to be exactly
// 3n₀ᵏ. Because every index corresponds to exactly one guaranteed
// dependency, this also checks that every dependency's chain is used.
func (r *Router) checkChainUsage(useA, useB []int64) error {
	n0K := r.powN[r.k]
	want := 3 * n0K
	for idx, c := range useA {
		if c != want {
			in, free := int64(idx)/n0K, int64(idx)%n0K
			return fmt.Errorf("routing: A-chain (%d→%d) used %d times, want exactly %d",
				in, r.chainOut(bilinear.SideA, in, free), c, want)
		}
	}
	for idx, c := range useB {
		if c != want {
			in, free := int64(idx)/n0K, int64(idx)%n0K
			return fmt.Errorf("routing: B-chain (%d→%d) used %d times, want exactly %d",
				in, r.chainOut(bilinear.SideB, in, free), c, want)
		}
	}
	return nil
}

// chainOut reconstructs the packed output of the guaranteed chain of
// the given side from its input and its packed free digits (base n₀):
// an A-chain keeps the input's row digits and takes the free digits as
// columns, a B-chain the reverse.
func (r *Router) chainOut(side bilinear.Side, in, free int64) int64 {
	n0 := int64(r.n0)
	var out int64
	for l := 0; l < r.k; l++ {
		e := in / r.powA[r.k-1-l] % r.a
		f := free / r.powN[r.k-1-l] % n0
		if side == bilinear.SideA {
			out = out*r.a + (e/n0)*n0 + f
		} else {
			out = out*r.a + f*n0 + e%n0
		}
	}
	return out
}

// VerifyValueClassRouting re-verifies the Routing Theorem's 6aᵏ bound
// with vertices identified by *value class* (cdag.ValueRoot) instead of
// meta-vertex: vertices provably carrying the same value — including
// nontrivial linear combinations reused by several multiplications —
// count as one. This is the vertex identification of the paper's
// "one vertex per value" model, and therefore an empirical test of the
// Section 8 conjecture that the standing one-multiplication-per-
// combination assumption can be lifted: for algorithms violating the
// assumption (G.HasValueSharing()), a per-class load within 6aᵏ is
// exactly what the conjecture predicts. The error reports a violation;
// Stats.MaxMetaHits carries the per-class maximum (counted per path).
func (r *Router) VerifyValueClassRouting() (Stats, error) {
	start := time.Now()
	g := r.G
	st := Stats{Bound: 6 * r.powA[r.k]}
	// Dense per-class accumulator and fixed-size array dedup, as in
	// scanRows: a path has 3(2k+2)-2 vertices, so at most that many
	// distinct roots — a linear scan beats a map at that size, and the
	// enumeration loop stays allocation-free.
	classHits := make(hitVec, g.NumVertices())
	roots := make([]cdag.V, 0, 3*(2*r.k+2)-2)
	// Cache ValueRoot: it is pure per vertex.
	cache := make([]cdag.V, g.NumVertices())
	for i := range cache {
		cache[i] = -1
	}
	r.ForEachPairPath(func(side bilinear.Side, in, out int64, path []cdag.V) {
		st.NumPaths++
		st.TotalHits += int64(len(path))
		roots = roots[:0]
		for _, v := range path {
			root := cache[v]
			if root < 0 {
				root = g.ValueRoot(v)
				cache[v] = root
			}
			seen := false
			for _, s := range roots {
				if s == root {
					seen = true
					break
				}
			}
			if !seen {
				roots = append(roots, root)
			}
		}
		for _, root := range roots {
			classHits[root]++
		}
	})
	st.MaxMetaHits = classHits.max()
	st.MaxVertexHits = st.MaxMetaHits
	st.Elapsed = time.Since(start)
	if st.MaxMetaHits > st.Bound {
		return st, fmt.Errorf(
			"routing: %s G_%d: Section 8 check: value class hit by %d paths > 6aᵏ = %d",
			g.Alg.Name, r.k, st.MaxMetaHits, st.Bound)
	}
	return st, nil
}
