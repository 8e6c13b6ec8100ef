package routing

// Fan-aggregated orbit kernel: the default scan when
// Router.OrbitReduction is set. It does O(chains·k) work per run where
// the per-path kernels do O(paths), and each row range's contribution
// is bit-identical to full enumeration's (scanRows), so checkpoint
// shards written by any kernel resume under any other.
//
// Geometry (as in stage 1, orbit.go). A side-A path a_ij → c_ij′ →
// b_jj′ → c_i′j′ is chain 1 (a_ij → c_ij′), chain 2 (b_jj′ → c_ij′,
// entered reversed) and chain 3 (b_jj′ → c_i′j′). An orbit is (side,
// input, fixed output digits j′); its n₀ᵏ members differ in the free
// digits i′, which only chain 3 reads. Chain 3 is one of the n₀ᵏ
// guaranteed chains out of the junction b = b_jj′ — the junction's
// *fan*, whose outputs are o_l = j′_l + x_l·n₀ for x ∈ [n₀]ᵏ — and the
// orbit's members walk that whole fan once. Side B mirrors this:
// junction a_i′i, fixed digits i′, outputs o_l = i′_l·n₀ + x_l.
//
// Vertex hits. A path credits all of chain 1, chain 2 minus c_ij′ and
// chain 3 minus b. Summed over an orbit that is n₀ᵏ·(C1 + C2′) plus
// F_b, the fan's visit counts with the junction left out. Every
// (side, input) row whose key — the column digits j of a_ij, the row
// digits i of b_ij — equals b's has exactly one orbit with b as its
// junction, so over a row range
//
//	hits = Σ_orbits n₀ᵏ·(C1 + C2′) + Σ_b w_b·F_b,
//
// with w_b the range's rows carrying b's key. The orbit pass credits
// the first sum, keeping stage 2's incremental odometer over the fixed
// digits; the fan pass walks each used fan once, weighted by w_b.
//
// Meta-vertex hits. A path meets meta-vertex ρ iff it visits the root
// vertex ρ. A copy has one parent, and on a chain the vertex before a
// copy is its parent, so every chain through a copy passes the copy's
// root; the two vertices a path drops are covered (c_ij′ lies on chain
// 1, b on chain 2). Per orbit, a root ρ of C1 ∪ C2′ therefore gets n₀ᵏ
// and any other root gets F_b(ρ). The orbit pass credits each distinct
// root of C1 ∪ C2′ (epoch stamps, as in stage 1) with n₀ᵏ − F_b(ρ) and
// the fan pass adds w_b·F_b(ρ) at the fan's root vertices. Where this
// relies on a copy's root being its chain predecessor's root — chain
// 2's encoding ranks and the fan — the kernel checks it and panics
// otherwise, as it does for a shared chain that is not guaranteed.
//
// F_b(ρ) at a root of C1 ∪ C2′ is a per-digit product. Let cnt[e][t]
// count the x ∈ [n₀] whose guaranteed output from junction digit e the
// base matching maps to product t, and P2[m] = Π_{l<m} cnt[jc_l][t2_l]
// over chain 2's product digits (P1 likewise over chain 1's). A fan
// chain passes chain 2's encoding vertex at rank r ≥ 1 iff its first r
// product digits are chain 2's: P2[r]·n₀^(k−r) chains. It passes the
// product t1 (t2) in P1[k] (P2[k]) chains, and the rank-j decoding
// vertex d1[j] (d2[j]) iff its first k−j product digits match and its
// last j output digits are c_ij′'s, which fixes x in those slots:
// P1[k−j] (P2[k−j]) chains. The junction is left out of F_b, and chain
// 1's encoding vertices live in the other encoding graph: 0.
//
// Adjacency sampling. For each row the positions idx ≡ 0 (mod stride)
// are walked in ascending order, materialized through appendPairPath
// and checked as scanRows checks every path (length, endpoints, then
// edge by edge): the sample, AdjacencyChecked and the in-row order of
// first errors are those of full enumeration. The paths between
// samples are never built, so a corrupted routing is caught only where
// the sample lands; at stride 1 the first error is scanRows's.

import (
	"fmt"
	"sync/atomic"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// scanRowsFan verifies rows [rowLo, rowHi) as scanRows does, with the
// same accumulators, emit cadence and statistics.
func (r *Router) scanRowsFan(w, workers int, rowLo, rowHi int64, earliestErr *atomic.Int64, out *workerState) {
	g := r.G
	k := r.k
	aK := r.powA[k]
	n0 := int64(r.n0)
	n0K := r.powN[k]
	wantLen := 3*(2*k+2) - 2
	stride := r.adjStride()
	out.begin(g.NumVertices())
	total := (rowHi - rowLo) * aK
	observing := r.Progress != nil || r.Obs != nil
	nextEmit := int64(progressChunk)
	var lastEmit time.Time
	var flushedPaths, flushedAdj int64
	var orbits, flushedOrbits int64
	var families, flushedFamilies int64
	emit := func(final bool) {
		out.notePeak() // as in stage 1
		r.Obs.flushScan(out.numPaths-flushedPaths, out.adjChecked-flushedAdj, out.peak)
		r.Obs.flushOrbit(orbits-flushedOrbits, families-flushedFamilies)
		flushedPaths, flushedAdj = out.numPaths, out.adjChecked
		flushedOrbits, flushedFamilies = orbits, families
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
	full := make([]cdag.V, 0, wantLen) // sampled paths, materialized whole

	// All kernel state in one backing array: per-slot digits, per-rank
	// prefixes, suffixes, fan counts and layer bases, then the two
	// sides' cnt tables (a×b each, indexed by the side whose matching
	// routes chain 3) and row weights (n₀ᵏ keys each).
	ab := r.a * r.b
	ki, ki1 := int64(k), int64(k+1)
	state := make([]int64, 11*ki+13*ki1+2*ab+2*n0K)
	cut := func(n int64) []int64 {
		s := state[:n:n]
		state = state[n:]
		return s
	}
	inDig, mBase, jcBase, mDig, jcDig := cut(ki), cut(ki), cut(ki), cut(ki), cut(ki)
	t1Dig, t2Dig, t3Dig, fixD, xD, oDig := cut(ki), cut(ki), cut(ki), cut(ki), cut(ki), cut(ki)
	t1Pre, t2Pre, t3Pre, p1, p2 := cut(ki1), cut(ki1), cut(ki1), cut(ki1), cut(ki1)
	inSuf, midSuf, jcSuf, enc1Root, encRoot := cut(ki1), cut(ki1), cut(ki1), cut(ki1), cut(ki1)
	enc1Base, enc3Base, decBase := cut(ki1), cut(ki1), cut(ki1)
	cnt := [2][]int64{cut(ab), cut(ab)}
	weight := [2][]int64{cut(n0K), cut(n0K)}
	p1[0], p2[0] = 1, 1
	for s, match := range [2][]int{r.BM.matchA, r.BM.matchB} {
		for e := int64(0); e < r.a; e++ {
			for x := int64(0); x < n0; x++ {
				o := e - e%n0 + x // side A: same row digit as e
				if s == 1 {
					o = x*n0 + e%n0 // side B: same column digit
				}
				if t := match[e*r.a+o]; t >= 0 {
					cnt[s][e*r.b+int64(t)]++
				}
			}
		}
	}

	// stamp/serial: stage 1's epoch-stamped "already counted for every
	// member of this orbit" test. Both live in out for the whole run:
	// the serial only grows, so stamps from earlier ranges never match.
	if out.stamp == nil {
		out.stamp = make([]int64, g.NumVertices())
	}
	stamp, serial := out.stamp, out.serial
	// credit adds an orbit's hits at v and, once per orbit, n₀ᵏ − f at
	// v's root, f being F_b(v). It returns the root, which must be v or
	// prevRoot, the root of v's chain predecessor (-1 at a chain's
	// first vertex).
	credit := func(v, prevRoot cdag.V, f int64) cdag.V {
		out.hits[v] += n0K
		root := metaRoots[v]
		if root == v {
			if stamp[v] != serial {
				stamp[v] = serial
				out.metaHits[v] += n0K - f
			}
		} else if root != prevRoot {
			panic(errCopyRoot)
		}
		return root
	}
	// creditW is credit for w paths without the per-orbit stamp, for
	// vertices whose own-root positions each path meets once: the fans'
	// vertices, and chain 1's encoding vertices, whose roots no other
	// chain of the orbit reaches.
	creditW := func(v, prevRoot cdag.V, w int64) cdag.V {
		out.hits[v] += w
		root := metaRoots[v]
		if root == v {
			out.metaHits[v] += w
		} else if root != prevRoot {
			panic(errCopyRoot)
		}
		return root
	}

	for row := rowLo; row < rowHi; row++ {
		// Cooperative cancellation at row granularity, as in scanRows.
		if earliestErr.Load() < row*aK {
			out.cancelled = true
			return
		}
		side, in := r.rowOf(row)
		ps.setIn(r, in)
		families++
		// The row's sample, in ascending position order, checked as
		// scanRows checks every path.
		wantIn := g.InputA(in)
		if side == bilinear.SideB {
			wantIn = g.InputB(in)
		}
		for outIdx := (stride - row*aK%stride) % stride; outIdx < aK; outIdx += stride {
			out.adjChecked++
			ps.setOut(r, outIdx)
			full = r.appendPairPath(ps, side, in, outIdx, full[:0])
			if len(full) != wantLen {
				out.fail(row*aK+outIdx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): length %d, want %d",
					side, in, outIdx, len(full), wantLen), earliestErr)
				return
			}
			if full[0] != wantIn || full[wantLen-1] != g.Output(outIdx) {
				out.fail(row*aK+outIdx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): endpoints %s..%s",
					side, in, outIdx, g.Label(full[0]), g.Label(full[wantLen-1])), earliestErr)
				return
			}
			for x := 0; x+1 < len(full); x++ {
				if !r.adjacent(full[x], full[x+1]) {
					out.fail(row*aK+outIdx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): not connected at %s -- %s",
						side, in, outIdx, g.Label(full[x]), g.Label(full[x+1])), earliestErr)
					return
				}
			}
		}

		// Orbit geometry as in stage 1: side A fixes the output column
		// digits (unit scale in the packed digit); side B the row digits.
		// Chain 1 lives in the side's encoding graph, chains 2 and 3 in
		// the other side's, routed by match3 with fan counts cnt3.
		fixedD := ps.ojD
		fixedScale := int64(1)
		kind1, match1 := cdag.EncA, r.BM.matchA
		kind3, match3 := cdag.EncB, r.BM.matchB
		s3 := 1
		if side == bilinear.SideB {
			fixedD, fixedScale = ps.oiD, n0
			kind1, match1 = cdag.EncB, r.BM.matchB
			kind3, match3 = cdag.EncA, r.BM.matchA
			s3 = 0
		}
		cnt3 := cnt[s3]
		for j := 0; j <= k; j++ {
			enc1Base[j] = int64(g.LayerBase(kind1, j))
			enc3Base[j] = int64(g.LayerBase(kind3, j))
			decBase[j] = int64(g.LayerBase(cdag.Dec, j))
		}
		prodBase := decBase[0]
		// Row constants: the input digits, the parts of the mid and
		// junction digits the fixed digit does not contribute (mid is
		// c_{i,j′} / c_{i′,j}, junction b_{j,j′} / a_{i′,i}), and the
		// row's key, which selects its junctions.
		var key int64
		for l := 0; l < k; l++ {
			fixedD[l] = 0
			inDig[l] = ps.iD[l]*n0 + ps.jD[l]
			if side == bilinear.SideA {
				mBase[l] = ps.iD[l] * n0
				jcBase[l] = ps.jD[l] * n0
				key = key*n0 + ps.jD[l]
			} else {
				mBase[l] = ps.jD[l]
				jcBase[l] = ps.iD[l]
				key = key*n0 + ps.iD[l]
			}
		}
		weight[s3][key]++
		for j := 1; j <= k; j++ {
			inSuf[j] = inDig[k-j]*r.powA[j-1] + inSuf[j-1]
		}
		// Chain 1's encoding rank j reads only the first j fixed digits,
		// so it is shared by n₀^(k−j) consecutive orbits and is credited
		// once for all of them, like a fan's encoding ranks. F_b is 0
		// there: chain 3 never enters this encoding graph. Rank 0, the
		// input, is shared by the whole row.
		enc1Root[0] = int64(creditW(cdag.V(enc1Base[0]+inSuf[k]), -1, n0K*n0K))

		// Fixed-digit odometer; slots l0..k-1 changed since the last
		// orbit.
		for l0 := 0; l0 >= 0; l0 = nextDigits(fixedD, n0) {
			// Refresh the changed slots' digits and the shared chains'
			// matched product digits, then the downstream prefixes and
			// fan-count products: amortized O(1) per orbit.
			for l := l0; l < k; l++ {
				fd := fixedD[l] * fixedScale
				m := mBase[l] + fd
				jc := jcBase[l] + fd
				mDig[l], jcDig[l] = m, jc
				t1 := match1[int(inDig[l]*r.a+m)]
				t2 := match3[int(jc*r.a+m)]
				if t1 < 0 || t2 < 0 {
					panic("routing: orbit shared chains must be guaranteed")
				}
				t1Dig[l], t2Dig[l] = int64(t1), int64(t2)
			}
			for j := l0 + 1; j <= k; j++ {
				t1Pre[j] = t1Pre[j-1]*r.b + t1Dig[j-1]
				t2Pre[j] = t2Pre[j-1]*r.b + t2Dig[j-1]
				p1[j] = p1[j-1] * cnt3[jcDig[j-1]*r.b+t1Dig[j-1]]
				p2[j] = p2[j-1] * cnt3[jcDig[j-1]*r.b+t2Dig[j-1]]
				v := cdag.V(enc1Base[j] + t1Pre[j]*r.powA[k-j] + inSuf[k-j])
				enc1Root[j] = int64(creditW(v, cdag.V(enc1Root[j-1]), n0K*r.powN[k-j]))
			}
			for j := 1; j <= k; j++ {
				midSuf[j] = mDig[k-j]*r.powA[j-1] + midSuf[j-1]
				jcSuf[j] = jcDig[k-j]*r.powA[j-1] + jcSuf[j-1]
			}
			serial++
			out.serial = serial
			orbits++
			// The rest of chain 1 (product, dec 1..k), then chain 2 minus
			// c_ij′ (enc 0..k, product, dec 1..k-1), each in chain order so
			// a copy's predecessor is credited before it.
			root := credit(cdag.V(prodBase+t1Pre[k]), cdag.V(enc1Root[k]), p1[k])
			for j := 1; j <= k; j++ {
				root = credit(cdag.V(decBase[j]+t1Pre[k-j]*r.powA[j]+midSuf[j]), root, p1[k-j])
			}
			root = credit(cdag.V(enc3Base[0]+jcSuf[k]), -1, 0) // the junction
			for j := 1; j <= k; j++ {
				root = credit(cdag.V(enc3Base[j]+t2Pre[j]*r.powA[k-j]+jcSuf[k-j]), root, p2[j]*r.powN[k-j])
			}
			root = credit(cdag.V(prodBase+t2Pre[k]), root, p2[k])
			for j := 1; j < k; j++ {
				root = credit(cdag.V(decBase[j]+t2Pre[k-j]*r.powA[j]+midSuf[j]), root, p2[k-j])
			}
			out.numPaths += n0K
			out.totalHits += n0K * int64(wantLen)
			// Snapshot cadence at orbit granularity (see stage 1).
			if observing && (out.numPaths >= nextEmit ||
				(orbits&progressClockMask == 0 && time.Since(lastEmit) >= progressTimeFloor)) {
				emit(false)
			}
		}
	}

	// Fan pass: each junction the range's rows reach, walked once and
	// credited with its weight. Fans routed by matchB (side-A rows) have
	// junction digits key·n₀ + fixed and outputs fixed + x·n₀; fans
	// routed by matchA (side-B rows) the mirror image. Every odometer
	// below wraps back to all zeros, ready for its next use.
	for s3 := 0; s3 < 2; s3++ {
		kind3, match3 := cdag.EncA, r.BM.matchA
		fixedScale, freeScale := n0, int64(1)
		if s3 == 1 {
			kind3, match3 = cdag.EncB, r.BM.matchB
			fixedScale, freeScale = 1, n0
		}
		for j := 0; j <= k; j++ {
			enc3Base[j] = int64(g.LayerBase(kind3, j))
			decBase[j] = int64(g.LayerBase(cdag.Dec, j))
		}
		for key, wt := range weight[s3] {
			if wt == 0 {
				continue
			}
			for l, kk := k-1, int64(key); l >= 0; l, kk = l-1, kk/n0 {
				jcBase[l] = kk % n0 * freeScale
			}
			for lf := 0; lf >= 0; lf = nextDigits(fixD, n0) {
				for j := 1; j <= k; j++ {
					l := k - j
					jcDig[l] = jcBase[l] + fixD[l]*fixedScale
					jcSuf[j] = jcDig[l]*r.powA[j-1] + jcSuf[j-1]
				}
				// The orbit pass credited the junction and checked that
				// it is its own root.
				encRoot[0] = enc3Base[0] + jcSuf[k]
				// The fan's chains, x odometer; slots l0..k-1 changed
				// since the previous chain.
				for l0 := 0; l0 >= 0; l0 = nextDigits(xD, n0) {
					for l := l0; l < k; l++ {
						oDig[l] = fixD[l]*fixedScale + xD[l]*freeScale
						t := match3[int(jcDig[l]*r.a+oDig[l])]
						if t < 0 {
							panic("routing: fan chains must be guaranteed")
						}
						t3Dig[l] = int64(t)
					}
					// Encoding rank j depends on the first j slots only:
					// credit each changed one once for the n₀^(k−j)
					// chains that pass it.
					for j := l0 + 1; j <= k; j++ {
						t3Pre[j] = t3Pre[j-1]*r.b + t3Dig[j-1]
						v := cdag.V(enc3Base[j] + t3Pre[j]*r.powA[k-j] + jcSuf[k-j])
						encRoot[j] = int64(creditW(v, cdag.V(encRoot[j-1]), wt*r.powN[k-j]))
					}
					// The product (decoding rank 0) and decoding ranks
					// 1..k, once per chain.
					root := cdag.V(encRoot[k])
					var oSuf int64
					for j := 0; j <= k; j++ {
						if j > 0 {
							oSuf += oDig[k-j] * r.powA[j-1]
						}
						root = creditW(cdag.V(decBase[j]+t3Pre[k-j]*r.powA[j]+oSuf), root, wt)
					}
				}
			}
		}
	}
}

// errCopyRoot is the panic when a copy's meta root is not its chain
// predecessor's, which the kernel's meta-hit accounting relies on.
const errCopyRoot = "routing: a copy's meta root must be its chain predecessor's"

// nextDigits advances the base-n₀ odometer d (last slot fastest) and
// returns the leftmost slot that changed, or -1 when it wrapped back to
// all zeros.
func nextDigits(d []int64, n0 int64) int {
	for l := len(d) - 1; l >= 0; l-- {
		if d[l]++; d[l] < n0 {
			return l
		}
		d[l] = 0
	}
	return -1
}
