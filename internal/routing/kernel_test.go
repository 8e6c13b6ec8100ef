package routing

// Golden tests for the allocation-free enumeration kernel: the scratch
// kernel (appendPairPath) must produce exactly the paths of the seed
// kernel, seedPairPath, a test-only oracle, and steady-state
// enumeration must not allocate. The meta-root table and dedup of
// scanRows are checked against a copy-edge walk in
// TestVertexHitsMatchEnumeration.

import (
	"fmt"
	"strings"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// kernelCatalog is the algorithm × depth table the golden tests sweep.
// DisconnectedFast has a=16, so k=3 alone would be 33M pair paths —
// capped at k=2 to keep the suite fast; the other algorithms run k=1..3.
func kernelCatalog() []struct {
	alg  *bilinear.Algorithm
	maxK int
} {
	return []struct {
		alg  *bilinear.Algorithm
		maxK int
	}{
		{bilinear.Strassen(), 3},
		{bilinear.Winograd(), 3},
		{bilinear.Classical(2), 3},
		{bilinear.DisconnectedFast(), 2},
	}
}

// TestPairPathEnumerationZeroAllocs pins the tentpole claim: with the
// scratch and path buffer warm, enumerating every pair path of G_k
// performs zero heap allocations.
func TestPairPathEnumerationZeroAllocs(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	ps := r.newPathScratch()
	var buf []cdag.V
	aK := r.powA[r.k]
	enumerate := func() {
		for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
			for in := int64(0); in < aK; in++ {
				ps.setIn(r, in)
				ps.setOut(r, 0)
				for out := int64(0); out < aK; out++ {
					if out != 0 {
						ps.advanceOut(r)
					}
					buf = r.appendPairPath(ps, side, in, out, buf[:0])
				}
			}
		}
	}
	enumerate() // warm the path buffer so growth is not billed below
	if allocs := testing.AllocsPerRun(5, enumerate); allocs != 0 {
		t.Fatalf("steady-state pair-path enumeration: %v allocs/run, want 0", allocs)
	}
}

// TestPairPathMatchesSeedKernel compares the scratch kernel's output
// vertex-by-vertex against the seed kernel (seedPairPath) for every
// pair path of every catalog algorithm at every depth.
func TestPairPathMatchesSeedKernel(t *testing.T) {
	for _, c := range kernelCatalog() {
		for k := 1; k <= c.maxK; k++ {
			r := mustRouter(t, c.alg, k)
			var seed []cdag.V
			r.ForEachPairPath(func(side bilinear.Side, in, out int64, path []cdag.V) {
				seed = seedPairPath(r, side, in, out, seed[:0])
				if len(seed) != len(path) {
					t.Fatalf("%s k=%d (side %v, in %d, out %d): scratch len %d, seed len %d",
						c.alg.Name, k, side, in, out, len(path), len(seed))
				}
				for i := range seed {
					if seed[i] != path[i] {
						t.Fatalf("%s k=%d (side %v, in %d, out %d): vertex %d: scratch %s, seed %s",
							c.alg.Name, k, side, in, out, i,
							r.G.Label(path[i]), r.G.Label(seed[i]))
					}
				}
			})
		}
	}
}

// TestGuaranteedChainEnumerationMatchesSeed checks that the direct
// free-digit enumeration of ForEachGuaranteedChain visits exactly the
// chains the seed's filter loop visited — same (side, in, out)
// sequence, same chain vertices, same order.
func TestGuaranteedChainEnumerationMatchesSeed(t *testing.T) {
	type rec struct {
		side  bilinear.Side
		in    int64
		out   int64
		chain string
	}
	for _, c := range kernelCatalog() {
		for k := 1; k <= c.maxK; k++ {
			r := mustRouter(t, c.alg, k)
			// Seed enumeration: test all aᵏ×aᵏ pairs, keep guaranteed ones.
			var want []rec
			var buf []cdag.V
			for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
				for in := int64(0); in < r.powA[r.k]; in++ {
					for out := int64(0); out < r.powA[r.k]; out++ {
						var ok bool
						buf, ok = r.AppendChain(side, in, out, buf[:0])
						if ok {
							want = append(want, rec{side, in, out, fmt.Sprint(buf)})
						}
					}
				}
			}
			var got []rec
			r.ForEachGuaranteedChain(func(side bilinear.Side, in, out int64, chain []cdag.V) {
				got = append(got, rec{side, in, out, fmt.Sprint(chain)})
			})
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d chains enumerated, want %d", c.alg.Name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d chain %d:\ngot  %+v\nwant %+v", c.alg.Name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestChainUsageDenseCounters exercises the dense-counter rewrite of
// VerifyChainUsage across the catalog (the seed used per-pair slice
// allocations and map counters) and checks chainOut round-trips the
// index encoding it reports errors through.
func TestChainUsageDenseCounters(t *testing.T) {
	for _, c := range kernelCatalog() {
		for k := 1; k <= min(c.maxK, 2); k++ {
			r := mustRouter(t, c.alg, k)
			if err := r.VerifyChainUsage(); err != nil {
				t.Fatalf("%s k=%d: %v", c.alg.Name, k, err)
			}
			// chainOut must invert the (in, free) index: the chain it
			// names must be guaranteed and have the free digits it was
			// derived from.
			for in := int64(0); in < r.powA[r.k]; in++ {
				for free := int64(0); free < r.powN[r.k]; free++ {
					outA := r.chainOut(bilinear.SideA, in, free)
					if _, ok := r.AppendChain(bilinear.SideA, in, outA, nil); !ok {
						t.Fatalf("%s k=%d: chainOut(A, %d, %d) = %d is not guaranteed", c.alg.Name, k, in, free, outA)
					}
					outB := r.chainOut(bilinear.SideB, in, free)
					if _, ok := r.AppendChain(bilinear.SideB, in, outB, nil); !ok {
						t.Fatalf("%s k=%d: chainOut(B, %d, %d) = %d is not guaranteed", c.alg.Name, k, in, free, outB)
					}
				}
			}
		}
	}
}

// TestChainUsageMatchesPairPaths recounts Lemma 4's chain usage the
// slow way — cut every pair path into its three chains and identify
// each by its input and output vertex — and requires chainUsage's
// index formulas to produce the same counters.
func TestChainUsageMatchesPairPaths(t *testing.T) {
	for _, c := range kernelCatalog() {
		for k := 1; k <= c.maxK; k++ {
			r := mustRouter(t, c.alg, k)
			g := r.G
			n0, n0K := int64(r.n0), r.powN[k]
			wantA := make([]int64, r.powA[k]*n0K)
			wantB := make([]int64, r.powA[k]*n0K)
			// count records one use of the side's chain from input
			// vertex in to output vertex out: an A-chain keeps the
			// input's row digits and frees the output's columns, a
			// B-chain the reverse.
			count := func(side bilinear.Side, in, out cdag.V) {
				kind, use := cdag.EncA, wantA
				if side == bilinear.SideB {
					kind, use = cdag.EncB, wantB
				}
				inIdx := int64(in - g.LayerBase(kind, 0))
				outIdx := int64(out - g.LayerBase(cdag.Dec, k))
				var free int64
				for l := 0; l < k; l++ {
					o := outIdx / r.powA[k-1-l] % r.a
					d := o % n0
					if side == bilinear.SideB {
						d = o / n0
					}
					free = free*n0 + d
				}
				use[inIdx*n0K+free]++
			}
			// A path is chain 1, chain 2 reversed without its output
			// (ending at the junction), and chain 3 without the junction.
			chainLen := 2*k + 2
			r.ForEachPairPath(func(side bilinear.Side, _, _ int64, path []cdag.V) {
				other := bilinear.SideB
				if side == bilinear.SideB {
					other = bilinear.SideA
				}
				mid, junction := path[chainLen-1], path[2*chainLen-2]
				count(side, path[0], mid)
				count(other, junction, mid)
				count(other, junction, path[len(path)-1])
			})
			gotA, gotB := r.chainUsage()
			for _, u := range []struct {
				name      string
				got, want []int64
			}{{"A", gotA, wantA}, {"B", gotB, wantB}} {
				if err := diffHits(u.got, u.want); err != nil {
					t.Fatalf("%s k=%d %s-chain usage: %v", c.alg.Name, k, u.name, err)
				}
			}
		}
	}
}

// TestCheckChainUsageNamesTheChain is the negative control: one
// counter off by one, on either side, fails with that chain named.
func TestCheckChainUsageNamesTheChain(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	useA, useB := r.chainUsage()
	if err := r.checkChainUsage(useA, useB); err != nil {
		t.Fatal(err)
	}
	n0K := r.powN[r.k]
	for _, c := range []struct {
		side     bilinear.Side
		use      []int64
		in, free int64
		delta    int64
	}{
		{bilinear.SideA, useA, 9, 3, 1},
		{bilinear.SideB, useB, 5, 2, -1},
	} {
		c.use[c.in*n0K+c.free] += c.delta
		err := r.checkChainUsage(useA, useB)
		c.use[c.in*n0K+c.free] -= c.delta
		want := fmt.Sprintf("%v-chain (%d→%d) used %d times", c.side, c.in,
			r.chainOut(c.side, c.in, c.free), 3*n0K+c.delta)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("counter (%v, %d, %d) off by %d: got %v, want an error naming %q",
				c.side, c.in, c.free, c.delta, err, want)
		}
	}
}

// seedPairPath is the original pair-path kernel, kept as the golden
// reference the allocation-free appendPairPath is tested against. It
// rebuilds every digit from in and out and every chain from scratch
// through AppendChain, sharing no state with the scratch kernel, at the
// cost of four digit slices, a closure and three chain slices per path.
func seedPairPath(r *Router, side bilinear.Side, in, out int64, buf []cdag.V) []cdag.V {
	// Decompose in/out into per-slot row and column digits.
	n0 := int64(r.n0)
	iD := make([]int64, r.k) // row digits of input
	jD := make([]int64, r.k) // col digits of input
	oiD := make([]int64, r.k)
	ojD := make([]int64, r.k)
	for l := 0; l < r.k; l++ {
		e := in / r.powA[r.k-1-l] % r.a
		o := out / r.powA[r.k-1-l] % r.a
		iD[l], jD[l] = e/n0, e%n0
		oiD[l], ojD[l] = o/n0, o%n0
	}
	pack := func(rows, cols []int64) int64 {
		var x int64
		for l := 0; l < r.k; l++ {
			x = x*r.a + rows[l]*n0 + cols[l]
		}
		return x
	}
	var c1, c2, c3 []cdag.V
	var ok bool
	switch side {
	case bilinear.SideA:
		// a_ij → c_ij′ → b_jj′ → c_i′j′.
		mid := pack(iD, ojD) // c_{i,j′}
		bIn := pack(jD, ojD) // b_{j,j′}
		c1, ok = r.AppendChain(bilinear.SideA, in, mid, nil)
		if !ok {
			panic("routing: chain a→c_ij′ must be guaranteed")
		}
		c2, ok = r.AppendChain(bilinear.SideB, bIn, mid, nil)
		if !ok {
			panic("routing: chain b→c_ij′ must be guaranteed")
		}
		c3, ok = r.AppendChain(bilinear.SideB, bIn, out, nil)
		if !ok {
			panic("routing: chain b→c_i′j′ must be guaranteed")
		}
	default:
		// b_ij → c_i′j → a_i′i → c_i′j′  (paper's B-side sequence).
		mid := pack(oiD, jD) // c_{i′,j}
		aIn := pack(oiD, iD) // a_{i′,i}
		c1, ok = r.AppendChain(bilinear.SideB, in, mid, nil)
		if !ok {
			panic("routing: chain b→c_i′j must be guaranteed")
		}
		c2, ok = r.AppendChain(bilinear.SideA, aIn, mid, nil)
		if !ok {
			panic("routing: chain a→c_i′j must be guaranteed")
		}
		c3, ok = r.AppendChain(bilinear.SideA, aIn, out, nil)
		if !ok {
			panic("routing: chain a→c_i′j′ must be guaranteed")
		}
	}
	buf = append(buf, c1...)
	for i := len(c2) - 2; i >= 0; i-- { // reversed, junction dropped
		buf = append(buf, c2[i])
	}
	buf = append(buf, c3[1:]...) // junction dropped
	return buf
}
