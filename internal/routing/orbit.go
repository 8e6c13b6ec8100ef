package routing

// Orbit-reduced full-routing verification: the symmetry layer that
// collapses the aᵏ-fold redundancy ROADMAP item 3 identifies, without
// giving up a single bit of the full enumeration's statistics.
//
// The symmetry. A Lemma 4 pair path for (side A, input a_ij, output
// c_i′j′) is the composition of three guaranteed-dependence chains
//
//	a_ij → c_ij′   (chain 1),   b_jj′ → c_ij′  (chain 2, reversed),
//	b_jj′ → c_i′j′ (chain 3),
//
// and chains 1 and 2 depend only on (i, j, j′) — the output's row
// multi-index i′ does not appear. The n₀ᵏ paths that share a (side,
// input) row and the output column multi-index j′, and differ only in
// i′, therefore share chains 1 and 2 *pointwise*; only chain 3 varies.
// The B-side mirror (b_ij → c_i′j, a_i′i → c_i′j, a_i′i → c_i′j′)
// fixes i′ and frees j′ symmetrically. These fibers are the orbits of
// the free output coordinate acting by translation on the pair space —
// 2aᵏn₀ᵏ orbits of n₀ᵏ paths each, a consequence of the k-fold tensor
// power: the chain construction is slot-wise, so a coordinate that
// appears in no slot of a chain's definition cannot change the chain.
//
// The reduction. scanRowsOrbit enumerates one orbit at a time: it
// builds chains 1 and 2 once, credits their hit contributions with
// weight n₀ᵏ (the orbit size), and then walks only chain 3 per member.
// Exactness, field by field, against scanRows:
//
//   - NumPaths, TotalHits: every member is still visited once, and a
//     valid path always has 3(2k+2)-2 vertices.
//   - Vertex hits: a path bumps c1 (all of it), c2 minus its final
//     junction vertex, and c3 minus its leading junction vertex (the
//     composition drops duplicated junctions). Hits are additive, so
//     crediting the constant part once with weight n₀ᵏ and the varying
//     part per member is the same sum — including degenerate members
//     whose chain 3 retraces chain 2 (mid = out), which the weighted
//     part and the per-member part then both touch, exactly as the
//     full scan bumps those vertices twice on that one path.
//   - Meta-vertex hits: a path credits each *distinct* meta root of
//     its vertex set once. The distinct roots split into roots of
//     c1 ∪ c2 (constant across the orbit, credited once with weight
//     n₀ᵏ) and roots of c3 not already in that set, credited per
//     member through an O(1) epoch-stamp membership test. Within
//     chain 3 itself, equal roots only ever appear consecutively — a
//     chain's rank-j encoding vertex roots to the vertex at its last
//     non-trivial rank ≤ j, which is monotone in j, and decoding
//     vertices are their own roots — so a single previous-root
//     comparison dedups the chain without a scan.
//   - AdjacencyChecked: the sampled paths are selected by sequential
//     enumeration position (idx % stride == 0), the same rule and
//     therefore the same sample as the full scan; each is materialized
//     through the same appendPairPath kernel and checked edge by edge.
//
// The merged Stats are consequently bit-identical to scanRows at any
// k and any worker count, and checkpoint shards (whole rows) receive
// bit-identical contributions, so checkpoints written by either mode
// resume under the other. One caveat: on a *corrupted* routing both
// modes reject, but the reported first error can differ — the orbit
// scan visits a row's paths grouped by orbit rather than in output
// order, and checks the shared chains once per orbit — so equivalence
// holds for the success statistics, not for failure positions.

import (
	"fmt"
	"sync/atomic"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// scanRowsOrbit is scanRows with orbit reduction: same row ranges, same
// accumulators, same emit cadence, bit-identical statistics; per-path
// work drops from three chain constructions plus a quadratic root-dedup
// scan to one chain construction plus a linear stamped walk.
func (r *Router) scanRowsOrbit(w, workers int, rowLo, rowHi int64, earliestErr *atomic.Int64, out *workerState) {
	g := r.G
	aK := r.powA[r.k]
	n0 := int64(r.n0)
	n0K := r.powN[r.k]
	chainLen := 2*r.k + 2
	wantLen := 3*chainLen - 2
	stride := r.adjStride()
	out.begin(g.NumVertices())
	total := (rowHi - rowLo) * aK
	observing := r.Progress != nil || r.Obs != nil
	nextEmit := int64(progressChunk)
	var lastEmit time.Time
	var flushedPaths, flushedAdj int64
	var orbits, flushedOrbits int64
	emit := func(final bool) {
		// The running peak is recomputed from the accumulator instead of
		// being tracked per bump on the hot path: hit counts only grow,
		// so the scan's maximum at recompute time is exact, and nothing
		// outside Progress/metrics reads out.peak (the final Stats
		// maximum comes from the merged vectors). A recompute is a pass
		// over every vertex, so notePeak runs it on the worker's first
		// snapshot and then at most once per time floor, across ranges.
		out.notePeak()
		r.Obs.flushScan(out.numPaths-flushedPaths, out.adjChecked-flushedAdj, out.peak)
		r.Obs.flushOrbit(orbits-flushedOrbits, 0)
		flushedPaths, flushedAdj, flushedOrbits = out.numPaths, out.adjChecked, orbits
		nextEmit = out.numPaths + progressChunk
		lastEmit = time.Now()
		if r.Progress != nil {
			r.Progress(Progress{Worker: w, Workers: workers, Done: out.numPaths,
				Total: total, PeakVertexHits: out.peak, Final: final})
		}
	}
	if observing {
		lastEmit = time.Now()
		defer emit(true)
	}

	metaRoots := g.MetaRoots()
	ps := r.newPathScratch()
	c1 := make([]cdag.V, 0, chainLen)
	c2 := make([]cdag.V, 0, chainLen)
	c3 := make([]cdag.V, 0, chainLen)
	full := make([]cdag.V, 0, wantLen) // sampled paths, materialized whole
	// Division-free chain-3 synthesis state (see the member loop): the
	// varying chain's matched product digits, maintained alongside the
	// odometer, and the per-member product prefixes derived from them.
	eRow := make([]int64, r.k)      // match-table row base per slot (junction digit · a)
	oDig := make([]int64, r.k)      // packed output digit per slot
	tDig := make([]int64, r.k)      // matched product digit per slot
	tPre := make([]int64, r.k+1)    // tPre[j] = first j product digits, packed
	juncSuf := make([]int64, r.k+1) // juncSuf[j] = junc mod aʲ
	// stamp[root] holds the serial of the last orbit whose shared chains
	// credited root; comparing against the current serial is the O(1)
	// "already counted for every member of this orbit" test. Serial 0 is
	// never used, so the zero-initialized vector starts clean, and the
	// serial only grows across the worker's ranges, so it stays clean.
	if out.stamp == nil {
		out.stamp = make([]int64, g.NumVertices())
	}
	stamp := out.stamp

	for row := rowLo; row < rowHi; row++ {
		// Cooperative cancellation, as in scanRows: an error published
		// before everything left in this worker's scan makes the rest
		// irrelevant to the first-error selection.
		if earliestErr.Load() < row*aK {
			out.cancelled = true
			return
		}
		side, in := r.rowOf(row)
		ps.setIn(r, in)
		wantIn := g.InputA(in)
		other := bilinear.SideB
		if side == bilinear.SideB {
			wantIn = g.InputB(in)
			other = bilinear.SideA
		}
		// Orbit geometry (see file comment): the fixed output coordinate
		// selects the orbit, the free one enumerates its members. An
		// output digit is oiD[l]·n₀ + ojD[l]; side A fixes the column
		// digits ojD (unit scale) and frees the row digits oiD (·n₀),
		// side B the mirror image.
		fixedD, freeD := ps.ojD, ps.oiD
		fixedScale, freeScale := int64(1), n0
		if side == bilinear.SideB {
			fixedD, freeD = ps.oiD, ps.ojD
			fixedScale, freeScale = n0, 1
		}
		for l := 0; l < r.k; l++ {
			fixedD[l] = 0
		}
		for orbit := int64(0); orbit < n0K; orbit++ {
			if orbit != 0 {
				for l := r.k - 1; l >= 0; l-- { // odometer over the fixed digits
					if fixedD[l]++; fixedD[l] < n0 {
						break
					}
					fixedD[l] = 0
				}
			}
			out.serial++
			serial := out.serial
			orbits++
			// Packed output of the orbit's first member (free digits all
			// zero); shared-chain failures are attributed to it.
			var baseOut int64
			for l := 0; l < r.k; l++ {
				baseOut = baseOut*r.a + fixedD[l]*fixedScale
			}
			// Shared chains: in → mid and junc → mid, constant across the
			// orbit because mid and junc pack only fixed digit slices.
			var mid, junc int64
			if side == bilinear.SideA {
				mid = ps.pack(r, ps.iD, ps.ojD)  // c_{i,j′}
				junc = ps.pack(r, ps.jD, ps.ojD) // b_{j,j′}
			} else {
				mid = ps.pack(r, ps.oiD, ps.jD)  // c_{i′,j}
				junc = ps.pack(r, ps.oiD, ps.iD) // a_{i′,i}
			}
			var ok bool
			c1, ok = r.AppendChain(side, in, mid, c1[:0])
			if !ok {
				panic("routing: orbit chain in→mid must be guaranteed")
			}
			c2, ok = r.AppendChain(other, junc, mid, c2[:0])
			if !ok {
				panic("routing: orbit chain junc→mid must be guaranteed")
			}
			idx0 := row*aK + baseOut
			if len(c1) != chainLen || len(c2) != chainLen {
				out.fail(idx0, fmt.Errorf("routing: pair path (side %v, in %d, out %d): chain lengths %d, %d, want %d",
					side, in, baseOut, len(c1), len(c2), chainLen), earliestErr)
				return
			}
			if c1[0] != wantIn || c1[chainLen-1] != c2[chainLen-1] {
				out.fail(idx0, fmt.Errorf("routing: pair path (side %v, in %d, out %d): endpoints %s..%s",
					side, in, baseOut, g.Label(c1[0]), g.Label(c2[chainLen-1])), earliestErr)
				return
			}
			// Weighted shared-chain contributions: c1 in full, c2 minus
			// its final vertex (the junction the composed path drops; it
			// equals c1's final vertex, already credited). Every meta root
			// touched here gets this orbit's serial, marking it counted
			// for all n₀ᵏ member paths at once.
			for _, v := range c1 {
				out.hits.add(v, n0K)
				if root := metaRoots[v]; stamp[root] != serial {
					stamp[root] = serial
					out.metaHits[root] += n0K
				}
			}
			for _, v := range c2[:chainLen-1] {
				out.hits.add(v, n0K)
				if root := metaRoots[v]; stamp[root] != serial {
					stamp[root] = serial
					out.metaHits[root] += n0K
				}
			}
			// Members: walk the free-digit odometer, maintaining the
			// packed output, its digits, and the matched product digits
			// of chain 3 incrementally (the ForEachGuaranteedChain
			// pattern, extended to the match table), then *synthesize*
			// chain 3 from that state — no per-member digit extraction,
			// no divisions; AppendChain's division-heavy reconstruction
			// is what full enumeration pays three times per path.
			kind3, match3 := cdag.EncB, r.BM.matchB
			if other == bilinear.SideA {
				kind3, match3 = cdag.EncA, r.BM.matchA
			}
			for j := 0; j <= r.k; j++ {
				juncSuf[j] = junc % r.powA[j]
			}
			for l := 0; l < r.k; l++ {
				freeD[l] = 0
				if side == bilinear.SideA {
					// chain 3 routes b_{j,j′} → c_{i′,j′}
					eRow[l] = (ps.jD[l]*n0 + ps.ojD[l]) * r.a
					oDig[l] = fixedD[l] // = ojD[l]; free row digit is 0
				} else {
					// chain 3 routes a_{i′,i} → c_{i′,j′}
					eRow[l] = (ps.oiD[l]*n0 + ps.iD[l]) * r.a
					oDig[l] = fixedD[l] * n0 // = oiD[l]·n₀; free col digit is 0
				}
				t := match3[int(eRow[l]+oDig[l])]
				if t < 0 {
					panic("routing: orbit chain junc→out must be guaranteed")
				}
				tDig[l] = int64(t)
			}
			outIdx := baseOut
			for member := int64(0); member < n0K; member++ {
				if member != 0 {
					for l := r.k - 1; l >= 0; l-- {
						freeD[l]++
						outIdx += freeScale * r.powA[r.k-1-l]
						oDig[l] += freeScale
						if freeD[l] < n0 {
							tDig[l] = int64(match3[int(eRow[l]+oDig[l])])
							break
						}
						freeD[l] = 0
						outIdx -= n0 * freeScale * r.powA[r.k-1-l]
						oDig[l] -= n0 * freeScale
						tDig[l] = int64(match3[int(eRow[l]+oDig[l])])
					}
				}
				idx := row*aK + outIdx
				out.numPaths++
				out.totalHits += int64(wantLen)
				// Chain 3, synthesized: encoding rank j is the packed
				// (first j product digits, junction suffix) pair; the
				// product vertex is the full packed product; decoding
				// rank j is the (first k−j product digits, output
				// suffix) pair, with the output suffix re-accumulated
				// from the maintained digits — so the final vertex
				// doubles as an end-to-end consistency check against
				// the independently maintained outIdx.
				c3 = c3[:0]
				var pre int64
				c3 = append(c3, g.ID(kind3, 0, junc))
				for j := 1; j <= r.k; j++ {
					pre = pre*r.b + tDig[j-1]
					tPre[j] = pre
					c3 = append(c3, g.ID(kind3, j, pre*r.powA[r.k-j]+juncSuf[r.k-j]))
				}
				c3 = append(c3, g.ID(cdag.Dec, 0, pre))
				var outSuf int64
				for j := 1; j <= r.k; j++ {
					outSuf += oDig[r.k-j] * r.powA[j-1]
					c3 = append(c3, g.ID(cdag.Dec, j, tPre[r.k-j]*r.powA[j]+outSuf))
				}
				if c3[chainLen-1] != g.Output(outIdx) {
					out.fail(idx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): endpoints %s..%s",
						side, in, outIdx, g.Label(c1[0]), g.Label(c3[chainLen-1])), earliestErr)
					return
				}
				if idx%stride == 0 {
					// Same sample as the full scan: materialize the whole
					// path through the composition kernel (the pathScratch
					// digit slices are in sync — freeD aliases them) and
					// check it edge by edge.
					out.adjChecked++
					full = r.appendPairPath(ps, side, in, outIdx, full[:0])
					if len(full) != wantLen {
						out.fail(idx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): length %d, want %d",
							side, in, outIdx, len(full), wantLen), earliestErr)
						return
					}
					for i := 0; i+1 < len(full); i++ {
						if !r.adjacent(full[i], full[i+1]) {
							out.fail(idx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): not connected at %s -- %s",
								side, in, outIdx, g.Label(full[i]), g.Label(full[i+1])), earliestErr)
							return
						}
					}
				}
				// Varying-chain contribution: c3 minus its leading vertex
				// (the junction the composition drops; it equals c2[0],
				// already credited). A root carrying this orbit's serial
				// was counted for this path by the weighted pass; within
				// c3, equal roots are consecutive, so one comparison
				// dedups repeats without touching the stamp.
				prevRoot := cdag.V(-1)
				for _, v := range c3[1:] {
					out.hits.bump(v)
					root := metaRoots[v]
					if root == prevRoot {
						continue
					}
					prevRoot = root
					if stamp[root] != serial {
						out.metaHits[root]++
					}
				}
			}
			// Snapshot cadence at orbit granularity: an orbit is n₀ᵏ
			// paths, far below progressChunk, so hoisting the check (and
			// the rate-limited clock read behind the time floor) out of
			// the member loop changes the cadence by at most one orbit.
			if observing && (out.numPaths >= nextEmit ||
				(orbits&progressClockMask == 0 && time.Since(lastEmit) >= progressTimeFloor)) {
				emit(false)
			}
		}
	}
}
