// Package routing implements the path-routing constructions at the core
// of Scott–Holtz–Schwartz, "Matrix Multiplication I/O-Complexity by Path
// Routing" (SPAA 2015), and verifies their claimed hit-count bounds
// exactly on explicit CDAGs:
//
//   - Lemma 3: a 2n₀ᵏ-routing of all guaranteed dependencies of G_k
//     consisting only of chains, built from a base-level many-to-one Hall
//     matching (Theorem 3) between guaranteed dependencies and products,
//     lifted through the recursion exactly as in Claim 2.
//   - Lemma 4: the composition a_ij → c_ij′ → b_jj′ → c_i′j′ (and its
//     B-side mirror) routing *every* input–output pair through three
//     guaranteed-dependence chains, each chain reused exactly 3n₀ᵏ times.
//   - Theorem 2 (Routing Theorem): the resulting 6aᵏ-routing between all
//     inputs and all outputs of G_k, with per-vertex and per-meta-vertex
//     hit counts verified against the bound.
//   - Claim 1 (Section 5): the simpler (11·7ᵏ)-style routing inside the
//     decoding graph D_k alone, with "zag" detours through connected base
//     decoding components, applicable whenever D₁ is connected.
//
// Routings are never stored; paths are enumerated arithmetically from
// the tensor structure, so verification over hundreds of thousands of
// paths runs in milliseconds with O(|V|) memory.
package routing

import (
	"fmt"
	"sync/atomic"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/hall"
)

// BaseMatching assigns every guaranteed base-level dependency to a
// product of the base graph through which its chain will be routed,
// using each product at most n₀ times per side (the many-to-one Hall
// matching of Theorem 3, computed by max-flow).
type BaseMatching struct {
	Alg *bilinear.Algorithm
	// matchA[e*a+o] is the product routing the A-side dependency
	// (a_e → c_o), or -1 when the dependency is not guaranteed
	// (row(e) ≠ row(o)). matchB mirrors it with columns.
	matchA, matchB []int
}

// NewBaseMatching computes the two side matchings. It returns an error
// carrying a Hall-condition violation witness if no matching exists;
// by Lemma 5 that cannot happen for a correct algorithm in which every
// nontrivial combination is used in one multiplication (a violation
// would yield a matrix-vector algorithm with fewer than n₀²
// multiplications, contradicting Winograd's bound).
func NewBaseMatching(alg *bilinear.Algorithm) (*BaseMatching, error) {
	bm := &BaseMatching{Alg: alg}
	var err error
	bm.matchA, err = sideMatching(alg, bilinear.SideA)
	if err != nil {
		return nil, err
	}
	bm.matchB, err = sideMatching(alg, bilinear.SideB)
	if err != nil {
		return nil, err
	}
	return bm, nil
}

// GuaranteedBaseDeps lists the guaranteed base dependencies of one side
// as (entry, output) pairs: row(e) == row(o) for side A (a_ij
// influences every c_ij′), col(e) == col(o) for side B.
func GuaranteedBaseDeps(alg *bilinear.Algorithm, side bilinear.Side) [][2]int {
	n0, a := alg.N0, alg.A()
	var deps [][2]int
	for e := 0; e < a; e++ {
		for o := 0; o < a; o++ {
			if side == bilinear.SideA && e/n0 == o/n0 {
				deps = append(deps, [2]int{e, o})
			}
			if side == bilinear.SideB && e%n0 == o%n0 {
				deps = append(deps, [2]int{e, o})
			}
		}
	}
	return deps
}

// DepProducts returns the products adjacent to the base dependency
// (e → o) on the given side: products t with a nonzero encoding
// coefficient at e and a nonzero decoding coefficient at o. These are
// the products a chain for the dependency can pass through (the
// adjacency of the paper's matching graph H, with middle-rank vertices
// identified with their unique product).
func DepProducts(alg *bilinear.Algorithm, side bilinear.Side, e, o int) []int {
	enc := alg.U
	if side == bilinear.SideB {
		enc = alg.V
	}
	var ts []int
	for t := 0; t < alg.B(); t++ {
		if !enc[t][e].IsZero() && !alg.W[o][t].IsZero() {
			ts = append(ts, t)
		}
	}
	return ts
}

func sideMatching(alg *bilinear.Algorithm, side bilinear.Side) ([]int, error) {
	a := alg.A()
	deps := GuaranteedBaseDeps(alg, side)
	adj := make([][]int, len(deps))
	for x, d := range deps {
		adj[x] = DepProducts(alg, side, d[0], d[1])
	}
	m := hall.ManyToOne(len(deps), alg.B(),
		func(x int) []int { return adj[x] },
		func(int) int { return alg.N0 })
	if !m.Ok {
		return nil, fmt.Errorf(
			"routing: %s side %v: Hall condition fails (Lemma 5 witness: %d dependencies %v share only %d products)",
			alg.Name, side, len(m.Violation), violatingDeps(deps, m.Violation), len(m.ViolationN))
	}
	match := make([]int, a*a)
	for i := range match {
		match[i] = -1
	}
	for x, d := range deps {
		match[d[0]*a+d[1]] = m.Match[x]
	}
	return match, nil
}

func violatingDeps(deps [][2]int, idx []int) [][2]int {
	out := make([][2]int, 0, len(idx))
	for _, x := range idx {
		out = append(out, deps[x])
	}
	return out
}

// MatchA returns the product assigned to the A-side base dependency
// (a_e → c_o), or -1 if the dependency is not guaranteed.
func (bm *BaseMatching) MatchA(e, o int) int { return bm.matchA[e*bm.Alg.A()+o] }

// MatchB is MatchA for the B side.
func (bm *BaseMatching) MatchB(e, o int) int { return bm.matchB[e*bm.Alg.A()+o] }

// VerifyCapacities recounts how often each product is used by each side
// matching and checks the n₀ capacity; it returns the maximum usage.
func (bm *BaseMatching) VerifyCapacities() (int, error) {
	a, b, n0 := bm.Alg.A(), bm.Alg.B(), bm.Alg.N0
	maxUse := 0
	for _, match := range [][]int{bm.matchA, bm.matchB} {
		use := make([]int, b)
		for i := 0; i < a*a; i++ {
			if t := match[i]; t >= 0 {
				use[t]++
				if use[t] > maxUse {
					maxUse = use[t]
				}
			}
		}
		for t, u := range use {
			if u > n0 {
				return maxUse, fmt.Errorf("routing: %s: product %d used %d > n₀ = %d times", bm.Alg.Name, t, u, n0)
			}
		}
	}
	return maxUse, nil
}

// Router enumerates the routings of the paper inside a standalone
// graph G_k.
type Router struct {
	// G is the graph G_k the routing lives in.
	G *cdag.Graph
	// BM is the base matching the chains are lifted from.
	BM *BaseMatching

	// AdjacencySampleStride selects which pair paths the full-routing
	// verifiers check edge by edge against G's adjacency: every
	// stride-th path in sequential enumeration order, so sequential and
	// parallel runs check the same sample. 0 means the default stride
	// (257); 1 verifies the adjacency of every path.
	AdjacencySampleStride int64
	// OrbitReduction makes the full-routing verifiers run the fan kernel
	// (fan.go) instead of full enumeration (scanRows). It collapses each
	// pair-path orbit — the n₀ᵏ paths sharing a (side, input) row and the
	// fixed output coordinate, on which two of the three Lemma 4 chains
	// are pointwise constant — into one weighted credit of the shared
	// chains, and credits each junction's fan of varying chains once per
	// row range (in the checkpointed engine, once per merge), weighted
	// by the orbits that use it: O(chains) work instead of O(paths).
	// The resulting Stats, hit vectors and per-range contributions are
	// bit-identical to full enumeration at any k (see fan.go for the
	// exactness argument); only wall-clock time changes.
	OrbitReduction bool
	// Progress, when non-nil, receives periodic Progress snapshots from
	// VerifyFullRouting and VerifyFullRoutingParallel. It is called
	// concurrently from all workers and must be safe for concurrent use.
	Progress func(Progress)
	// Obs, when non-nil, receives batched metric updates and trace
	// spans from the full-routing verifiers (see NewInstruments).
	// Updates happen at progress-snapshot and shard granularity, so
	// instrumentation cost stays off the per-path hot path.
	Obs *Instruments

	// beforeShard, when set, runs in a checkpointed-engine worker after
	// it claims a shard and before it scans it. Tests use it to publish
	// an error position as a concurrent worker would.
	beforeShard func(shard int64, earliestErr *atomic.Int64)
	// fanWalks counts the junction fans the fan kernel has walked, for
	// tests that pin how often the checkpointed engine walks them.
	fanWalks atomic.Int64

	k    int
	n0   int
	a, b int64
	powA []int64 // a^i
	powB []int64 // b^i
	powN []int64 // n0^i
}

// NewRouter builds a Router for g, computing the base matching.
func NewRouter(g *cdag.Graph) (*Router, error) {
	bm, err := NewBaseMatching(g.Alg)
	if err != nil {
		return nil, err
	}
	return NewRouterWithMatching(g, bm)
}

// NewRouterWithMatching builds a Router reusing an existing matching.
func NewRouterWithMatching(g *cdag.Graph, bm *BaseMatching) (*Router, error) {
	if bm.Alg.Name != g.Alg.Name {
		return nil, fmt.Errorf("routing: matching for %s used with graph for %s", bm.Alg.Name, g.Alg.Name)
	}
	r := &Router{G: g, BM: bm, k: g.R, n0: g.Alg.N0, a: int64(g.A()), b: int64(g.B())}
	r.powA = make([]int64, r.k+1)
	r.powB = make([]int64, r.k+1)
	r.powN = make([]int64, r.k+1)
	r.powA[0], r.powB[0], r.powN[0] = 1, 1, 1
	for i := 1; i <= r.k; i++ {
		r.powA[i] = r.powA[i-1] * r.a
		r.powB[i] = r.powB[i-1] * r.b
		r.powN[i] = r.powN[i-1] * int64(r.n0)
	}
	return r, nil
}

// K returns the recursion depth of the routed graph.
func (r *Router) K() int { return r.k }

// GuaranteedA reports whether input multi-index in (of A) and output
// multi-index out form a guaranteed dependency: equal row digits in
// every slot.
func (r *Router) GuaranteedA(in, out int64) bool {
	n0 := int64(r.n0)
	for l := 0; l < r.k; l++ {
		e := in / r.powA[r.k-1-l] % r.a
		o := out / r.powA[r.k-1-l] % r.a
		if e/n0 != o/n0 {
			return false
		}
	}
	return true
}

// GuaranteedB is GuaranteedA with column digits.
func (r *Router) GuaranteedB(in, out int64) bool {
	n0 := int64(r.n0)
	for l := 0; l < r.k; l++ {
		e := in / r.powA[r.k-1-l] % r.a
		o := out / r.powA[r.k-1-l] % r.a
		if e%n0 != o%n0 {
			return false
		}
	}
	return true
}

// AppendChain appends the chain routing the guaranteed dependency
// (input in → output out) on the given side to buf and returns it, or
// returns buf unchanged with ok=false when the dependency is not
// guaranteed. The chain is the Claim 2 lift of the base matching: it
// visits encoding ranks 0..k of the side's encoding graph, the product
// vertex of the slot-wise matched product multi-index, and decoding
// ranks 1..k — a directed path of 2k+2 vertices.
func (r *Router) AppendChain(side bilinear.Side, in, out int64, buf []cdag.V) ([]cdag.V, bool) {
	match := r.BM.matchA
	kind := cdag.EncA
	if side == bilinear.SideB {
		match = r.BM.matchB
		kind = cdag.EncB
	}
	aInt := int(r.a)
	// Slot-wise matched product coordinates.
	var t64 int64
	for l := 0; l < r.k; l++ {
		e := int(in / r.powA[r.k-1-l] % r.a)
		o := int(out / r.powA[r.k-1-l] % r.a)
		t := match[e*aInt+o]
		if t < 0 {
			return buf, false
		}
		t64 = t64*r.b + int64(t)
	}
	// Encoding ranks 0..k: prefix of T, suffix of in.
	for j := r.k; j >= 0; j-- {
		// T's first j digits: t64 / b^(k-j).
		tPrefix := t64 / r.powB[r.k-j]
		idx := tPrefix*r.powA[r.k-j] + in%r.powA[r.k-j]
		buf = append(buf, r.G.ID(kind, j, idx))
	}
	// The loop above appended ranks k..0 in reverse; flip them in place.
	start := len(buf) - (r.k + 1)
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	// Product = decoding rank 0.
	buf = append(buf, r.G.ID(cdag.Dec, 0, t64))
	// Decoding ranks 1..k: keep T's first k-j digits, out's last j.
	for j := 1; j <= r.k; j++ {
		idx := (t64/r.powB[j])*r.powA[j] + out%r.powA[j]
		buf = append(buf, r.G.ID(cdag.Dec, j, idx))
	}
	return buf, true
}

// pathScratch is the reusable per-worker state of pair-path
// enumeration. Fresh digit slices, a closure and three chain slices
// for every path — millions of paths of GC pressure and allocator
// contention serializing the parallel workers — would be the naive
// cost, so everything per-path lives here, allocated once per worker:
// steady-state enumeration performs zero allocations per path (pinned
// by TestPairPathEnumerationZeroAllocs).
//
// A scratch is single-goroutine state: each worker makes its own with
// newPathScratch and keeps the digit fields in sync with the pair it
// enumerates via setIn/setOut/advanceOut before calling appendPairPath.
type pathScratch struct {
	iD, jD   []int64  // per-slot row/col digits of the current input
	oiD, ojD []int64  // per-slot row/col digits of the current output
	chain    []cdag.V // chain composition buffer (reversed/truncated copies)
	roots    []cdag.V // per-path meta/value-root dedup (≤ 3(2k+2)-2 entries)
}

// newPathScratch returns a scratch sized for r's recursion depth, with
// every buffer pre-grown so first use does not allocate.
func (r *Router) newPathScratch() *pathScratch {
	digits := make([]int64, 4*r.k) // one backing array for all four digit slices
	pathLen := 3*(2*r.k+2) - 2
	return &pathScratch{
		iD:    digits[0*r.k : 1*r.k],
		jD:    digits[1*r.k : 2*r.k],
		oiD:   digits[2*r.k : 3*r.k],
		ojD:   digits[3*r.k : 4*r.k],
		chain: make([]cdag.V, 0, 2*r.k+2),
		roots: make([]cdag.V, 0, pathLen),
	}
}

// setIn decomposes input multi-index in into per-slot row/col digits.
func (ps *pathScratch) setIn(r *Router, in int64) {
	n0 := int64(r.n0)
	for l := 0; l < r.k; l++ {
		e := in / r.powA[r.k-1-l] % r.a
		ps.iD[l], ps.jD[l] = e/n0, e%n0
	}
}

// setOut decomposes output multi-index out into per-slot row/col
// digits.
func (ps *pathScratch) setOut(r *Router, out int64) {
	n0 := int64(r.n0)
	for l := 0; l < r.k; l++ {
		o := out / r.powA[r.k-1-l] % r.a
		ps.oiD[l], ps.ojD[l] = o/n0, o%n0
	}
}

// advanceOut steps the output digits to the next multi-index in
// enumeration order — the odometer the row-major scan loops turn
// instead of redoing k divisions per path. Incrementing the packed
// index by one bumps the last slot's digit and carries leftward, so
// only the changed slots are touched; past the last index it wraps to
// all zeros, like the packed value modulo aᵏ.
func (ps *pathScratch) advanceOut(r *Router) {
	n0 := int64(r.n0)
	for l := r.k - 1; l >= 0; l-- {
		d := ps.oiD[l]*n0 + ps.ojD[l] + 1
		if d < r.a {
			ps.oiD[l], ps.ojD[l] = d/n0, d%n0
			return
		}
		ps.oiD[l], ps.ojD[l] = 0, 0
	}
}

// pack recombines per-slot row and column digits into a packed
// multi-index (the inverse of setIn/setOut).
func (ps *pathScratch) pack(r *Router, rows, cols []int64) int64 {
	n0 := int64(r.n0)
	var x int64
	for l := 0; l < r.k; l++ {
		x = x*r.a + rows[l]*n0 + cols[l]
	}
	return x
}

// appendPairPath is the allocation-free pair-path kernel: it appends
// the Lemma 4 path for (side, in, out) to buf and returns it, taking
// all per-path state from ps, whose digit fields the caller must have
// synchronized to (in, out) via setIn/setOut/advanceOut. The first and
// third chains compose directly into buf; only the middle chain passes
// through the scratch buffer, because it enters the path reversed.
func (r *Router) appendPairPath(ps *pathScratch, side bilinear.Side, in, out int64, buf []cdag.V) []cdag.V {
	var ok bool
	switch side {
	case bilinear.SideA:
		// a_ij → c_ij′ → b_jj′ → c_i′j′.
		mid := ps.pack(r, ps.iD, ps.ojD) // c_{i,j′}
		bIn := ps.pack(r, ps.jD, ps.ojD) // b_{j,j′}
		buf, ok = r.AppendChain(bilinear.SideA, in, mid, buf)
		if !ok {
			panic("routing: chain a→c_ij′ must be guaranteed")
		}
		ps.chain, ok = r.AppendChain(bilinear.SideB, bIn, mid, ps.chain[:0])
		if !ok {
			panic("routing: chain b→c_ij′ must be guaranteed")
		}
		for i := len(ps.chain) - 2; i >= 0; i-- { // reversed, junction dropped
			buf = append(buf, ps.chain[i])
		}
		start := len(buf)
		buf, ok = r.AppendChain(bilinear.SideB, bIn, out, buf)
		if !ok {
			panic("routing: chain b→c_i′j′ must be guaranteed")
		}
		// Drop the third chain's leading junction vertex in place.
		buf = append(buf[:start], buf[start+1:]...)
	default:
		// b_ij → c_i′j → a_i′i → c_i′j′  (paper's B-side sequence).
		mid := ps.pack(r, ps.oiD, ps.jD) // c_{i′,j}
		aIn := ps.pack(r, ps.oiD, ps.iD) // a_{i′,i}
		buf, ok = r.AppendChain(bilinear.SideB, in, mid, buf)
		if !ok {
			panic("routing: chain b→c_i′j must be guaranteed")
		}
		ps.chain, ok = r.AppendChain(bilinear.SideA, aIn, mid, ps.chain[:0])
		if !ok {
			panic("routing: chain a→c_i′j must be guaranteed")
		}
		for i := len(ps.chain) - 2; i >= 0; i-- { // reversed, junction dropped
			buf = append(buf, ps.chain[i])
		}
		start := len(buf)
		buf, ok = r.AppendChain(bilinear.SideA, aIn, out, buf)
		if !ok {
			panic("routing: chain a→c_i′j′ must be guaranteed")
		}
		buf = append(buf[:start], buf[start+1:]...)
	}
	return buf
}

// PairPath computes the Lemma 4 path between input in of the given side
// and output out, as the composition of three guaranteed-dependency
// chains (the middle one reversed). Junction vertices are not
// duplicated; the path has 3(2k+2) - 2 vertices.
//
// This is the one-shot convenience form: it allocates a fresh scratch
// per call. Enumeration loops (ForEachPairPath, the verifier workers)
// reuse one pathScratch per worker and stay allocation-free.
func (r *Router) PairPath(side bilinear.Side, in, out int64, buf []cdag.V) []cdag.V {
	ps := r.newPathScratch()
	ps.setIn(r, in)
	ps.setOut(r, out)
	return r.appendPairPath(ps, side, in, out, buf)
}

// ForEachPairPath enumerates the full input–output routing of the
// Routing Theorem: for every input of A and of B (2aᵏ inputs) and every
// output (aᵏ), the Lemma 4 path. fn receives a reused buffer.
func (r *Router) ForEachPairPath(fn func(side bilinear.Side, in, out int64, path []cdag.V)) {
	var buf []cdag.V
	ps := r.newPathScratch()
	aK := r.powA[r.k]
	for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
		for in := int64(0); in < aK; in++ {
			ps.setIn(r, in)
			ps.setOut(r, 0)
			for out := int64(0); out < aK; out++ {
				if out != 0 {
					ps.advanceOut(r)
				}
				buf = r.appendPairPath(ps, side, in, out, buf[:0])
				fn(side, in, out, buf)
			}
		}
	}
}

// ForEachGuaranteedChain enumerates the Lemma 3 routing: one chain per
// guaranteed dependency of either side, in the sequential (side, in,
// out) order. Guaranteed outputs are enumerated directly — for each
// input only its n₀ᵏ dependent outputs are visited (free column digits
// for side A, free row digits for side B), n₀ᵏ·aᵏ chains per side —
// instead of testing all aᵏ×aᵏ pairs and discarding the non-guaranteed
// ones inside AppendChain.
func (r *Router) ForEachGuaranteedChain(fn func(side bilinear.Side, in, out int64, chain []cdag.V)) {
	var buf []cdag.V
	ps := r.newPathScratch()
	n0 := int64(r.n0)
	aK := r.powA[r.k]
	free := make([]int64, r.k) // odometer over the k free base-n₀ digits
	for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
		for in := int64(0); in < aK; in++ {
			ps.setIn(r, in)
			// Packed output with all free digits zero, and the packed
			// step a unit of free digit l contributes: side A fixes the
			// row digits (out digit l is iD[l]·n₀ + free[l]), side B the
			// column digits (out digit l is free[l]·n₀ + jD[l]).
			var base int64
			for l := 0; l < r.k; l++ {
				if side == bilinear.SideA {
					base = base*r.a + ps.iD[l]*n0
				} else {
					base = base*r.a + ps.jD[l]
				}
			}
			// A unit of free digit l moves out by stepScale·a^(k-1-l):
			// the free digit is the column (units) part of out digit l
			// for side A and the row (·n₀) part for side B.
			stepScale := int64(1)
			if side == bilinear.SideB {
				stepScale = n0
			}
			for l := range free {
				free[l] = 0
			}
			out := base
			for {
				var ok bool
				buf, ok = r.AppendChain(side, in, out, buf[:0])
				if !ok {
					panic("routing: directly enumerated dependency must be guaranteed")
				}
				fn(side, in, out, buf)
				// Advance the free-digit odometer, updating out in place.
				l := r.k - 1
				for ; l >= 0; l-- {
					free[l]++
					out += stepScale * r.powA[r.k-1-l]
					if free[l] < n0 {
						break
					}
					free[l] = 0
					out -= n0 * stepScale * r.powA[r.k-1-l]
				}
				if l < 0 {
					break
				}
			}
		}
	}
}
