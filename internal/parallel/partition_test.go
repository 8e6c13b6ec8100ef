package parallel

import (
	"math"
	"math/rand"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/bounds"
	"pathrouting/internal/cdag"
)

func mustCDAG(t *testing.T, alg *bilinear.Algorithm, r int) *cdag.Graph {
	t.Helper()
	g, err := cdag.New(alg, r)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionP1NoCommunication(t *testing.T) {
	g := mustCDAG(t, bilinear.Strassen(), 3)
	res, err := RankBalancedPartition(g, 1, Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossEdges != 0 || res.CriticalPath != 0 {
		t.Errorf("P=1 communicates: %+v", res)
	}
}

func TestPartitionBalanced(t *testing.T) {
	g := mustCDAG(t, bilinear.Strassen(), 4)
	rng := rand.New(rand.NewSource(4))
	for _, style := range []PartitionStyle{Contiguous, Shuffled} {
		res, err := RankBalancedPartition(g, 7, style, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Per-rank balance within the rounding slack.
		if res.MaxLoadImbalance > 1.5 {
			t.Errorf("%v: imbalance %v", style, res.MaxLoadImbalance)
		}
		if res.CrossEdges <= 0 || res.CriticalPath <= 0 {
			t.Errorf("%v: no communication recorded: %+v", style, res)
		}
		if res.CriticalPath > 2*res.CrossEdges {
			t.Errorf("%v: critical path %d exceeds total volume bound %d", style, res.CriticalPath, 2*res.CrossEdges)
		}
	}
}

func TestPartitionRespectsMemoryIndependentBound(t *testing.T) {
	// Theorem 1's last clause: any per-rank load-balanced execution
	// moves Ω(n²/P^(2/ω₀)) words; concrete partitions are executions,
	// so their critical-path words must sit above the bound (up to the
	// theorem's constant, which the paper leaves implicit; we check
	// with constant 1/8).
	alg := bilinear.Strassen()
	g := mustCDAG(t, alg, 5)
	rng := rand.New(rand.NewSource(6))
	n := math.Pow(2, 5)
	for _, p := range []int{4, 16, 49} {
		for _, style := range []PartitionStyle{Contiguous, Shuffled} {
			res, err := RankBalancedPartition(g, p, style, rng)
			if err != nil {
				t.Fatal(err)
			}
			lb := bounds.MemoryIndependent(alg.Omega0(), n, p)
			if float64(res.CriticalPath) < lb/8 {
				t.Errorf("P=%d %v: critical path %d below bound %v/8", p, style, res.CriticalPath, lb)
			}
		}
	}
}

func TestShuffledCostsMoreThanContiguous(t *testing.T) {
	// Locality matters: the random assignment cuts far more edges than
	// the contiguous one.
	g := mustCDAG(t, bilinear.Strassen(), 5)
	rng := rand.New(rand.NewSource(7))
	cont, err := RankBalancedPartition(g, 8, Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	shuf, err := RankBalancedPartition(g, 8, Shuffled, rng)
	if err != nil {
		t.Fatal(err)
	}
	if shuf.CrossEdges <= cont.CrossEdges {
		t.Errorf("shuffled %d not above contiguous %d", shuf.CrossEdges, cont.CrossEdges)
	}
}

func TestPartitionErrors(t *testing.T) {
	g := mustCDAG(t, bilinear.Strassen(), 2)
	if _, err := RankBalancedPartition(g, 0, Contiguous, nil); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := RankBalancedPartition(g, 2, Shuffled, nil); err == nil {
		t.Error("shuffled without rng accepted")
	}
}

// partitionByParents is the reference for RankBalancedPartition, the
// body it ran before it walked the CSR rows: the same assignment,
// addressed through g.ID, then every vertex in ID order, its rank from
// GlobalRank and its parents from AppendParents.
func partitionByParents(g *cdag.Graph, p int, style PartitionStyle, rng *rand.Rand) PartitionResult {
	owner := make([]int32, g.NumVertices())
	res := PartitionResult{P: p, MaxLoadImbalance: 1}
	assignLayer := func(kind cdag.Kind, rank int) {
		size := g.LayerSize(kind, rank)
		perm := make([]int32, size)
		for i := range perm {
			perm[i] = int32(i)
		}
		if style == Shuffled {
			rng.Shuffle(size, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		counts := make([]int64, p)
		for i := 0; i < size; i++ {
			proc := int(int64(i) * int64(p) / int64(size))
			owner[g.ID(kind, rank, int64(perm[i]))] = int32(proc)
			counts[proc]++
		}
		var maxC int64
		for _, c := range counts {
			maxC = max(maxC, c)
		}
		if imb := float64(maxC) / (float64(size) / float64(p)); imb > res.MaxLoadImbalance {
			res.MaxLoadImbalance = imb
		}
	}
	for rank := 0; rank <= g.R; rank++ {
		assignLayer(cdag.EncA, rank)
		assignLayer(cdag.EncB, rank)
	}
	for rank := 0; rank <= g.R; rank++ {
		assignLayer(cdag.Dec, rank)
	}
	perRank := make([][]int64, 2*g.R+2)
	for i := range perRank {
		perRank[i] = make([]int64, p)
	}
	var buf []cdag.Edge
	for v := range cdag.V(g.NumVertices()) {
		rank := g.GlobalRank(v)
		buf = g.AppendParents(v, buf[:0])
		for _, e := range buf {
			if owner[e.To] != owner[v] {
				res.CrossEdges++
				perRank[rank][owner[v]]++
				perRank[rank][owner[e.To]]++
			}
		}
	}
	for _, procs := range perRank {
		var h int64
		for _, w := range procs {
			h = max(h, w)
		}
		res.CriticalPath += h
	}
	return res
}

// TestPartitionMatchesParentReference requires RankBalancedPartition's
// result to equal the reference's, with identically seeded rngs, for
// every catalog algorithm at small r and for Strassen r=5.
func TestPartitionMatchesParentReference(t *testing.T) {
	type tc struct {
		alg *bilinear.Algorithm
		r   int
	}
	var cases []tc
	for _, alg := range bilinear.All() {
		r := 3
		if alg.N0 > 2 {
			r = 2
		}
		cases = append(cases, tc{alg, r})
	}
	cases = append(cases, tc{bilinear.Strassen(), 5})
	for _, c := range cases {
		g := mustCDAG(t, c.alg, c.r)
		for _, p := range []int{1, 3, 7, 49} {
			for _, style := range []PartitionStyle{Contiguous, Shuffled} {
				seed := int64(100*p + c.r)
				got, err := RankBalancedPartition(g, p, style, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				want := partitionByParents(g, p, style, rand.New(rand.NewSource(seed)))
				if got != want {
					t.Errorf("%s r=%d P=%d %v: got %+v, want %+v", c.alg.Name, c.r, p, style, got, want)
				}
			}
		}
	}
}
