package parallel

// Per-rank load-balanced CDAG partitions: the setting of the paper's
// cache-independent bandwidth bound. Theorem 1's last clause says that
// as long as the computation is load balanced per rank of the
// computation graph, any P-processor execution communicates
// Ω(n²/P^(2/ω₀)) words. Here we assign each rank's vertices evenly to
// the P processors (contiguously by index or at random) and count the
// words forced across processor boundaries: every edge whose endpoints
// live on different processors moves one word. Measured counts are
// *upper-bound instances* — concrete executions whose cost must sit
// above the lower bound, and do (see tests and cmd/paperrepro).

import (
	"fmt"
	"math/rand"

	"pathrouting/internal/cdag"
)

// PartitionStyle selects the per-rank assignment rule.
type PartitionStyle int

// Available assignment rules.
const (
	// Contiguous assigns each rank's vertices to processors in equal
	// consecutive index blocks — the locality-friendly baseline (block
	// layouts correspond to contiguous tensor-index ranges).
	Contiguous PartitionStyle = iota
	// Shuffled assigns each rank's vertices to processors in equal
	// shares but at random — the locality-oblivious worst case.
	Shuffled
)

func (s PartitionStyle) String() string {
	if s == Contiguous {
		return "contiguous"
	}
	return "shuffled"
}

// PartitionResult reports one partition's communication.
type PartitionResult struct {
	P int
	// CrossEdges is the number of graph edges with endpoints on
	// different processors (each moves one word overall).
	CrossEdges int64
	// CriticalPath is the bandwidth cost in the paper's sense: per
	// global rank, the maximum over processors of words sent plus
	// received, summed over ranks (rank-synchronous execution).
	CriticalPath int64
	// MaxLoadImbalance is the max/mean vertex count ratio over
	// processors within any rank (must be ≈ 1 for the bound to apply).
	MaxLoadImbalance float64
}

// RankBalancedPartition assigns every vertex of g to one of p
// processors, rank by rank, with the chosen style, and counts the
// communication the assignment forces. rng is used only by Shuffled.
func RankBalancedPartition(g *cdag.Graph, p int, style PartitionStyle, rng *rand.Rand) (PartitionResult, error) {
	if p < 1 {
		return PartitionResult{}, fmt.Errorf("parallel: P = %d", p)
	}
	if style == Shuffled && rng == nil {
		return PartitionResult{}, fmt.Errorf("parallel: Shuffled partition needs a rand source")
	}
	n := g.NumVertices()
	owner := make([]int32, n)

	assignLayer := func(kind cdag.Kind, rank int) float64 {
		size := g.LayerSize(kind, rank)
		if size == 0 {
			return 1
		}
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
			if c > maxC {
				maxC = c
			}
		}
		mean := float64(size) / float64(p)
		if mean == 0 {
			return 1
		}
		return float64(maxC) / mean
	}

	res := PartitionResult{P: p, MaxLoadImbalance: 1}
	note := func(imb float64) {
		if imb > res.MaxLoadImbalance {
			res.MaxLoadImbalance = imb
		}
	}
	for rank := 0; rank <= g.R; rank++ {
		note(assignLayer(cdag.EncA, rank))
		note(assignLayer(cdag.EncB, rank))
	}
	for rank := 0; rank <= g.R; rank++ {
		note(assignLayer(cdag.Dec, rank))
	}

	// Count cross-processor edges layer by layer over the CSR parent
	// rows, so each layer's global rank is fixed, and accumulate
	// per-rank h-relations: perRank[rank][proc] = words sent + received
	// by proc while computing the vertices of that global rank.
	nRanks := 2*g.R + 2
	perRank := make([][]int64, nRanks)
	for i := range perRank {
		perRank[i] = make([]int64, p)
	}
	countLayer := func(kind cdag.Kind, rank, globalRank int) {
		words := perRank[globalRank]
		base := g.LayerBase(kind, rank)
		for i := range g.LayerSize(kind, rank) {
			v := base + cdag.V(i)
			for _, u := range g.ParentRow(v) {
				if owner[u] != owner[v] {
					res.CrossEdges++
					words[owner[v]]++
					words[owner[u]]++
				}
			}
		}
	}
	for rank := 0; rank <= g.R; rank++ {
		countLayer(cdag.EncA, rank, rank)
		countLayer(cdag.EncB, rank, rank)
		countLayer(cdag.Dec, rank, g.R+1+rank)
	}
	for _, procs := range perRank {
		var h int64
		for _, w := range procs {
			if w > h {
				h = w
			}
		}
		res.CriticalPath += h
	}
	return res, nil
}
